"""The minors kernel, incidence profiles against an independent brute-force
oracle, the plane-set incidence rules against coordinates, projective
invariance, and the degeneration scan over the parameter line."""

import json
import random
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

import oracles
from oracles import (form_text, integer_row, oracle, plus,
                     random_constant_arrangement, random_gl4, times,
                     transform, trim)

from octic import incidence
from octic.exact import _zw_heu, _zw_prs_gcd, _zw_unpack
from octic.forms import FormVanishes, ParamArrangement, parse_equation

ELEVEN = [text for _, text in oracles.ELEVEN]
SEED1 = oracles.SEED1


# ---------------------------------------------------------------------------
# the minors kernel

W = sympy.Symbol("w")
QW = sympy.QQ.frac_field(W)
QQ_W = sympy.QQ[W]

# coefficients a + b w, zero half the time so that pencils and multiple
# points occur
affine_coefficient = st.one_of(
    st.just((0, 0)), st.tuples(st.integers(-2, 2), st.integers(-1, 1)))
affine_rows = st.lists(st.lists(affine_coefficient, min_size=4, max_size=4),
                       min_size=3, max_size=6)


def _sympy(x):
    """A coefficient tuple in w or a rational as a sympy expression in
    w."""
    coeffs = x if isinstance(x, tuple) else (x,)
    return sum((sympy.Rational(c.numerator, c.denominator) * W**k
                for k, c in enumerate(coeffs)), sympy.Integer(0))


def _as_zw(x) -> tuple:
    """A sympy polynomial in w with integer coefficients as a Z[w] tuple."""
    return tuple(int(c) for c in reversed(sympy.Poly(x, W).all_coeffs())
                 ) if x != 0 else ()


def _rank(vectors) -> int:
    """Rank over Q(w) of rows of Z[w] tuples, over Q when constant."""
    domain = QW if any(len(x) > 1 for v in vectors for x in v) else sympy.QQ
    elems = [[domain.from_sympy(_sympy(x)) for x in v] for v in vectors]
    return DomainMatrix(elems, (len(elems), 4), domain).rank()


def _in_qq_w(rows) -> list:
    """Rows of entries ``_sympy`` reads as rows of elements of Q[w]."""
    return [[QQ_W.from_sympy(_sympy(x)) for x in r] for r in rows]


def _sympy_minors(rows) -> list:
    """The maximal minors of at most 4 rows of 4 elements of Q[w], one per
    set of ``len(rows)`` columns in lexicographic order, by sympy."""
    k = len(rows)
    return [DomainMatrix([[r[c] for c in cols] for r in rows], (k, k),
                         QQ_W).det()
            for cols in combinations(range(4), k)]


def _assert_primitive(vec):
    nonzero = [p for p in vec if p]
    assert nonzero[0][-1] > 0
    if all(len(p) > 1 for p in nonzero):
        g = reduce(sympy.gcd, [_sympy(p) for p in nonzero])
        assert not g.has(W)
    coeffs = [c for p in vec for c in p]
    assert all(isinstance(c, int) for c in coeffs)
    assert gcd(*coeffs) == 1


def _on(form, vec) -> bool:
    return not plus(*(times(c, x) for c, x in zip(form, vec)))


@settings(max_examples=50, deadline=None)
@given(affine_rows)
def test_family_profile_matches_oracle_over_q_w(pairs):
    forms = [[(a, b) for a, b in row] for row in pairs]
    try:
        family = oracles.family(forms)
    except ValueError:
        assume(False)  # a zero form, or two proportional ones
    prof = incidence.profile(family)
    lines, points = oracle([[a + b * W for a, b in row] for row in pairs], QW)
    assert {l.planes: l.q for l in prof.lines} == lines
    assert {pt.planes: (pt.p, pt.j) for pt in prof.points} == points
    # coordinates: primitive, on exactly the listed planes, and the same
    # from every three of a point's planes that meet in a point
    for l in prof.lines:
        basis = prof.line_basis(l)
        assert _rank(basis) == 2
        for v in basis:
            _assert_primitive(v)
            assert all(_on(forms[k - 1], v) for k in l.planes)
    for pt in prof.points:
        vec = prof.point_vector(pt)
        _assert_primitive(vec)
        assert tuple(k + 1 for k, f in enumerate(forms)
                     if _on(f, vec)) == pt.planes
        for t in combinations(pt.planes, 3):
            ms = _sympy_minors(_in_qq_w(forms[k - 1] for k in t))
            if any(ms):
                cross = [ms[3], -ms[2], ms[1], -ms[0]]
                assert incidence.primitive_vector(
                    [_as_zw(QQ_W.to_sympy(m)) for m in cross]) == vec


def test_minors_are_read_off_the_table():
    """A pair's minors are the maximal minors of its rows (here already
    primitive integer rows); a fiber of the family evaluates them at its
    parameter, over one denominator: times 4 at w = 1/2."""
    family = incidence.profile(parse_equation("(wx+y+2t)(x+wy+3z)z"))
    assert family._minors((1, 2)) == [
        (-1, 0, 1), (0, 3), (-2,), (3,), (0, -2), (-6,)]
    assert family.fiber(Fraction(1, 2))._minors((1, 2)) == [
        (-3,), (6,), (-8,), (12,), (-4,), (-24,)]
    assert family._minors((1, 2, 3)) == [(-1, 0, 1), (), (2,), (0, 2)]
    (pt,) = family.points
    assert family.point_vector(pt) == ((0, 2), (-2,), (), (1, 0, -1))


# each expected text is the one written before coordinates were printed
# from plain tuples
@pytest.mark.parametrize("vec,text", [
    (((1,), (), (), ()), "(1:0:0:0)"),
    (((), (), (), ()), "(0:0:0:0)"),
    (((0, 2), (-2,), (), (1, 0, -1)), "(2*w:-2:0:1 + -1*w^2)"),
    (((-1,), (0, -1), (3, 1), (0, 0, 2)), "(-1:-1*w:3 + w:2*w^2)"),
])
def test_point_text(vec, text):
    assert incidence.point_text(vec) == text


# rationals with denominators up to 12, zero a third of the time; a nonzero
# row of constants or of polynomials of degree <= 2, and scaled copies of
# earlier rows inserted so that coincident pairs occur
rational = st.one_of(st.just(Fraction(0)),
                     st.fractions(-6, 6, max_denominator=12))
nonzero_rational = rational.filter(bool)
constant_rows = st.lists(
    st.lists(rational, min_size=4, max_size=4).filter(any),
    min_size=2, max_size=6)
poly_rows = st.lists(
    st.lists(st.lists(rational, max_size=3).map(trim), min_size=4,
             max_size=4).filter(any),
    min_size=2, max_size=6)
copies = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                            nonzero_rational), max_size=2)


@settings(max_examples=100, deadline=None)
@given(st.one_of(constant_rows, poly_rows), copies)
def test_minor_table_matches_the_unscaled_minors(rows, inserted):
    _assert_minor_table_matches(rows, inserted)


# integer coefficients up to 10^18 in size, often exactly +-10^18, of
# w-degree up to 5, and rows whose coefficients are all negative: minors
# near the packing width bound
big = st.one_of(st.integers(-10**18, 10**18),
                st.sampled_from([-10**18, 10**18]))
big_poly_rows = st.lists(
    st.lists(st.lists(big, max_size=6).map(trim), min_size=4,
             max_size=4).filter(any),
    min_size=2, max_size=4)
negative_poly_rows = st.lists(
    st.lists(st.lists(st.integers(-10**18, -1), min_size=1,
                      max_size=6).map(tuple), min_size=4, max_size=4),
    min_size=2, max_size=4)


@settings(max_examples=40, deadline=None)
@given(st.one_of(big_poly_rows, negative_poly_rows), copies)
def test_minor_table_with_large_coefficients(rows, inserted):
    _assert_minor_table_matches(rows, inserted)


def test_minor_table_of_a_hadamard_matrix():
    """The rows of a 4x4 Hadamard matrix times N + (N - 1) w: the
    quadruple minor is 16 (N + (N - 1) w)^4, whose middle coefficient
    96 N^2 (N - 1)^2 is a quarter of the width bound 24 (2N - 1)^4."""
    hadamard = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    n = 10**18
    rows = [[(h * n, h * (n - 1)) for h in row] for row in hadamard]
    _assert_minor_table_matches(rows, [])
    table, width = incidence._minor_table([integer_row(r) for r in rows])
    (quadruple,) = table[1, 2, 3, 4]
    assert _zw_unpack(quadruple, width)[2] == 16 * 6 * n**2 * (n - 1)**2


def _assert_minor_table_matches(rows, inserted):
    """``_minor_table`` of ``rows`` (of coefficient tuples in w, or of
    rationals) with the scaled copies ``inserted``, made primitive integer
    rows, against sympy's minors of the unscaled rows: over Z[w], and over Z
    as well when the rows are constant."""
    rows = [[x if isinstance(x, tuple) else trim([x]) for x in r]
            for r in rows]
    for src, dst, c in inserted:
        copy = [times(x, c) for x in rows[src % len(rows)]]
        rows.insert(dst % (len(rows) + 1), copy)
    integer_rows = [integer_row(r) for r in rows]
    if all(len(x) <= 1 for r in integer_rows for x in r):
        _assert_table_matches(rows, [[x[0] if x else 0 for x in r]
                                     for r in integer_rows])
    _assert_table_matches(rows, integer_rows)


def _assert_table_matches(rows, integer_rows):
    """``_minor_table`` of ``integer_rows`` against sympy's minors of the
    ``rows`` of coefficient tuples they are positive multiples of: packed
    integers, read back as coefficient tuples at the table's width over
    Z[w], or integers of width 0 over Z, keyed by plane numbers (the first
    row is plane 1)."""
    planes = range(1, len(rows) + 1)
    elems = dict(zip(planes, _in_qq_w(rows)))

    def reference(s):
        return _sympy_minors([elems[k] for k in s])

    coincident = next((s for s in combinations(planes, 2)
                       if not any(reference(s))), None)
    if coincident is not None:
        with pytest.raises(incidence.CoincidentPlanes) as err:
            incidence._minor_table(integer_rows)
        assert err.value.indices == coincident
        return
    table, width = incidence._minor_table(integer_rows)
    assert (width > 0) == isinstance(integer_rows[0][0], tuple)
    assert list(table) == [s for k in (2, 3, 4)
                           for s in combinations(planes, k)]
    for s, packed in table.items():
        assert all(isinstance(e, int) for e in packed)
        entries = [_zw_unpack(e, width) for e in packed] if width else packed
        ref = reference(s)
        got = [QQ_W.from_sympy(_sympy(e)) for e in entries]
        assert [bool(g) for g in got] == [bool(r) for r in ref], s
        assert all(isinstance(c, int) for e in entries
                   for c in (e if isinstance(e, tuple) else (e,)))
        # one positive rational factor for the whole subset
        k = next((m for m, r in enumerate(ref) if r), None)
        if k is not None:
            factor = got[k].LC / ref[k].LC
            assert factor > 0
            assert got == [r * factor for r in ref], s


def _random_family(rng: random.Random) -> ParamArrangement:
    while True:
        forms = [[(rng.randint(-2, 2), rng.randint(-1, 1))
                  if rng.random() < 0.6 else () for _ in range(4)]
                 for _ in range(rng.randint(4, 8))]
        try:
            return oracles.family(forms)
        except ValueError:
            continue  # a zero form, or two proportional ones


def _described(prof):
    return (prof.to_json(),
            [prof.point_vector(pt) for pt in prof.points],
            [prof.line_basis(l) for l in prof.lines])


def _scan_described(scan):
    return (scan.sigma, [(f.w0, f.reason) for f in scan.fatal],
            scan.unresolved, [_described(v.profile) for v in scan.values],
            [[c.to_json() for c in v.changes] for v in scan.values])


@pytest.mark.parametrize(
    "family",
    [parse_equation(t) for t in ELEVEN]
    + [_random_family(random.Random(n)) for n in range(20)],
    ids=ELEVEN + [f"random-{n}" for n in range(20)])
def test_scaling_the_forms_changes_no_answer(family):
    """The parser scales each form to a primitive integer row, so scaling a
    form by a nonzero rational beforehand changes at most the sign of its
    row, and no answer."""
    rng = random.Random(family.text())
    factors = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 12),
                        rng.randint(1, 12)) for _ in family.rows]
    scaled = parse_equation("".join(
        form_text([times(x, c) for x in row])
        for row, c in zip(family.rows, factors)))
    assert scaled.rows == tuple(
        row if c > 0 else tuple(tuple(-x for x in p) for p in row)
        for row, c in zip(family.rows, factors))
    assert _scan_described(incidence.degenerate_values(scaled)) == (
        _scan_described(incidence.degenerate_values(family)))
    assert _described(incidence.profile(scaled)) == (
        _described(incidence.profile(family)))


def test_primitive_vector_clears_content():
    # 3 (w (2w - 2), 0, 4w, 2/3 w^2): the factor w and the content 2 go
    vec = incidence.primitive_vector([(0, -6, 6), (), (0, 12), (0, 0, 2)])
    assert vec == ((-3, 3), (), (6,), (0, 1))
    # 4 (0, -1/2, 3/4, 0)
    assert incidence.primitive_vector([(), (-2,), (3,), ()]) == (
        (), (2,), (-3,), ())
    with pytest.raises(ValueError):
        incidence.primitive_vector([()] * 4)


# ---------------------------------------------------------------------------
# brute-force oracle for small constant arrangements


def test_profile_matches_brute_force_oracle():
    rng = random.Random(1234)
    done = 0
    while done < 120:
        n = rng.randint(3, 5)
        rows, family = random_constant_arrangement(rng, n)
        try:
            expected_lines, expected_points = oracle(rows)
        except incidence.CoincidentPlanes:
            with pytest.raises(incidence.CoincidentPlanes):
                incidence.profile(family, Fraction(0))
            continue
        prof = incidence.profile(family, Fraction(0))
        got_lines = {l.planes: l.q for l in prof.lines}
        got_points = {pt.planes: (pt.p, pt.j) for pt in prof.points}
        assert got_lines == expected_lines, rows
        assert got_points == expected_points, rows
        done += 1


# ---------------------------------------------------------------------------
# incidence read from plane sets


def _assert_subset_rules_match_coordinates(prof):
    """Point on line and two lines meeting, decided from plane sets, agree
    with ranks of the coordinates over Q(w)."""
    for l in prof.lines:
        assert prof.line_through(l.planes) is l
        for pt in prof.points:
            assert (set(l.planes) <= set(pt.planes)) == (
                _rank([*prof.line_basis(l), prof.point_vector(pt)]) == 2)
    for l1, l2 in combinations(prof.lines, 2):
        meet = prof.point_through(set(l1.planes) | set(l2.planes))
        assert (meet is not None) == (
            _rank([*prof.line_basis(l1), *prof.line_basis(l2)]) == 3)
    for pt in prof.points:
        assert prof.point_through(pt.planes) is pt


def test_subset_rules_match_coordinates_on_random_arrangements():
    rng = random.Random(4321)
    done = 0
    while done < 30:
        _, family = random_constant_arrangement(rng, rng.randint(4, 6))
        try:
            prof = incidence.profile(family, Fraction(0))
        except incidence.CoincidentPlanes:
            continue
        _assert_subset_rules_match_coordinates(prof)
        done += 1


@pytest.mark.parametrize("text", ELEVEN)
def test_subset_rules_match_coordinates_on_the_families(text):
    a = parse_equation(text)
    _assert_subset_rules_match_coordinates(incidence.profile(a))
    _assert_subset_rules_match_coordinates(
        incidence.profile(a, at=Fraction(0)))


def test_lookups_miss_when_no_line_or_point_contains_the_planes():
    a = parse_equation("xyz(x+y+z+w)")
    generic = incidence.profile(a)
    assert generic.point_through({1, 2, 3, 4}) is None
    assert generic.line_through({1, 2, 3}) is None
    assert generic.point_through({1, 2, 3}).planes == (1, 2, 3)
    central = incidence.profile(a, Fraction(0))
    assert central.point_through({1, 2, 3}).planes == (1, 2, 3, 4)


# ---------------------------------------------------------------------------
# projective invariance


def test_profile_invariant_under_100_projective_transforms():
    rng = random.Random(98)
    sources = [parse_equation(t) for t in
               (ELEVEN[0], ELEVEN[2], ELEVEN[5], ELEVEN[9])]
    for i in range(100):
        a = sources[i % len(sources)]
        key = incidence.profile(a).combinatorial_key()
        b = transform(a, random_gl4(rng))
        assert incidence.profile(b).combinatorial_key() == key


def test_specialized_profile_also_invariant():
    rng = random.Random(99)
    a = parse_equation("xyz(x+y+z)(x+y+w)")
    key = incidence.profile(a, Fraction(0)).combinatorial_key()
    for _ in range(20):
        b = transform(a, random_gl4(rng))
        got = incidence.profile(b, Fraction(0)).combinatorial_key()
        assert got == key


# ---------------------------------------------------------------------------
# degeneration scan over the parameter line


SCAN_EXPECTED = {
    "xy(x+y+w)": {Fraction(0)},
    "xyz(x+y+z+w)": {Fraction(0)},
    "xy(x+y)z(x+wy+z)": {Fraction(0), Fraction(1)},
    "xy(x+y)z(x+z+w)": {Fraction(0)},
    "xy(x+y)z(x+y+z+w)": {Fraction(0)},
    "xyz(x+y+z)(x+y+w)": {Fraction(0)},
    "xy(x+y+w)z": {Fraction(0)},
    "xy(x+y+zw)z": {Fraction(0)},
    "xyz(x+y+z)(x-y+w)": {Fraction(0)},
    "xyz(x+y+wz)(x+wy+z)": {Fraction(-1), Fraction(0)},
    "xyz(x+y+wz)(x+2y+z)": {Fraction(0), Fraction(1, 2), Fraction(1)},
}


@pytest.mark.parametrize("text", ELEVEN)
def test_degenerate_values_of_the_family(text):
    scan = incidence.degenerate_values(parse_equation(text))
    assert set(scan.sigma) == SCAN_EXPECTED[text]
    assert scan.unresolved == ()
    if text == "xyz(x+y+wz)(x+wy+z)":
        assert [f.w0 for f in scan.fatal] == [Fraction(1)]
    else:
        assert scan.fatal == ()


def _coordinates(prof):
    return ([prof.point_vector(pt) for pt in prof.points],
            [prof.line_basis(l) for l in prof.lines])


def _assert_scan_matches_fiber_profiles(family):
    """Every special profile equals the one eliminated from the fiber, and
    an integer value off the fatal list is degenerate exactly when the
    fiber's profile differs from the generic one; coordinates read off the
    family's table are the fiber's own."""
    scan = incidence.degenerate_values(family)
    for v in scan.values:
        ref = incidence.profile(family, at=v.w0)
        assert v.profile.combinatorial_key() == ref.combinatorial_key()
        assert v.profile.to_json() == ref.to_json()
        assert _coordinates(v.profile) == _coordinates(ref)
    generic_key = scan.generic.combinatorial_key()
    fatal = {f.w0 for f in scan.fatal}
    for w0 in map(Fraction, range(-3, 4)):
        if w0 in fatal:
            continue
        fiber = incidence.profile(family, at=w0)
        assert (w0 in scan.sigma) == (
            fiber.combinatorial_key() != generic_key), w0
        assert _coordinates(scan.generic.fiber(w0)) == _coordinates(fiber)


@settings(max_examples=50, deadline=None)
@given(affine_rows)
def test_scan_profiles_match_fiber_elimination(pairs):
    forms = [[(a, b) for a, b in row] for row in pairs]
    try:
        family = oracles.family(forms)
    except ValueError:
        assume(False)  # a zero form, or two proportional ones
    _assert_scan_matches_fiber_profiles(family)


@pytest.mark.parametrize("text", ELEVEN)
def test_scan_profiles_match_fiber_elimination_on_the_families(text):
    _assert_scan_matches_fiber_profiles(parse_equation(text))


def test_scan_eliminates_no_fiber(monkeypatch):
    """Each minor of the family is computed once, fraction-free, and no
    special fiber is eliminated again: no determinant by expansion, no
    ``profile`` inside the scan."""
    tables = []
    table_of = incidence._minor_table

    def recorded(rows):
        tables.append(table_of(rows))
        return tables[-1]

    def refused(*args, **kwargs):
        raise AssertionError("the scan eliminated a fiber")

    monkeypatch.setattr(incidence, "_minor_table", recorded)
    monkeypatch.setattr(incidence, "profile", refused)
    scan = incidence.degenerate_values(parse_equation(ELEVEN[10]))
    assert len(scan.sigma) == 3
    ((table, width),) = tables
    assert width > 0 and all(isinstance(m, int) for ms in table.values()
                             for m in ms)
    assert sorted(table) == sorted(
        s for k in (2, 3, 4) for s in combinations(range(1, 6), k))
    assert all(len(ms) == {2: 6, 3: 4, 4: 1}[len(s)]
               for s, ms in table.items())


@pytest.mark.parametrize("text", [ELEVEN[10], ELEVEN[9]])
def test_scan_searches_each_gcd_once(monkeypatch, text):
    """The scan stays on the packed minors: a set reaches a gcd only when
    the integer gcd of its packed minors is at least 2^(k-1), which no set
    with a nonzero constant minor does, and no set with a nonconstant gcd
    misses; its minors are unpacked there, GCDHEU takes its first candidate
    at the table's own width and succeeds, and ``rational_roots`` runs once
    per distinct primitive gcd.  (ELEVEN[9] has six nonconstant gcds on
    three distinct ones; ELEVEN[10] has three distinct ones.)"""
    family = parse_equation(text)
    heu_inputs, searched = [], []
    heu, roots_of = incidence._zw_heu, incidence.rational_roots
    table, width = incidence._minor_table(family.rows)

    def recorded_heu(polys, value, k):
        assert k == width
        heu_inputs.append(list(polys))
        g = heu(heu_inputs[-1], value, k)
        assert g is not None
        return g

    def recorded_roots(p):
        searched.append(p)
        return roots_of(p)

    monkeypatch.setattr(incidence, "_zw_heu", recorded_heu)
    monkeypatch.setattr(incidence, "rational_roots", recorded_roots)
    incidence.degenerate_values(family)
    monkeypatch.undo()

    unpacked = [[_zw_unpack(m, width) for m in ms] for ms in table.values()]
    scanned = [[m for m in ms if m] for ms, packed in zip(unpacked,
                                                           table.values())
               if gcd(*packed) >= 1 << width - 1]
    assert heu_inputs == scanned
    assert all(len(m) != 1 for ms in scanned for m in ms)
    assert all(ms in scanned for ms in ([m for m in ms if m]
                                        for ms in unpacked)
               if len(_zw_prs_gcd(ms)) > 1)
    gcds = {_zw_prs_gcd([m for m in ms if m])
            for ms in list(family.rows) + scanned} - {(), (1,)}
    assert len(searched) == len(gcds)
    assert set(searched) == gcds


# ---------------------------------------------------------------------------
# plane-mask lookups and fibers read off the family's table

DATA = Path(incidence.__file__).resolve().parent / "data"
BUNDLED = {
    path.stem: data
    for sub in ("families", "examples")
    for path in sorted((DATA / sub).glob("*.json"))
    for data in [json.loads(path.read_text(encoding="utf-8"))]
    if isinstance(data, dict) and data.get("equation")
}


def _assert_lookups_match_sets(prof):
    """The index lookups against the oracle's scans, on every set of at
    most five planes the index answers: two or more planes for a line,
    three that meet in a point for a point.  Every other set is refused:
    fewer than two planes lie on many lines, and fewer than three planes,
    or planes on one line, meet in many points."""
    for l in prof.lines:
        assert l.mask == sum(1 << k for k in l.planes)
        on = prof.points_on(l)
        assert len(on) == len(set(on))
        assert set(on) == {pt for pt in prof.points
                           if set(l.planes) <= set(pt.planes)}
    for pt in prof.points:
        assert pt.mask == sum(1 << k for k in pt.planes)
    for k in range(6):
        for planes in combinations(range(1, prof.n_forms + 1), k):
            # any iterable of the planes, repeats and order included
            given_as = planes[::-1] + planes[:1]
            if k < 2:
                with pytest.raises(ValueError, match="more than one line"):
                    prof.line_through(given_as)
            else:
                assert prof.line_through(given_as) is oracles.line_through(
                    prof, planes)
            if k < 3 or oracles.line_through(prof, planes) is not None:
                with pytest.raises(ValueError, match="meet in a point"):
                    prof.point_through(given_as)
            else:
                assert prof.point_through(given_as) is oracles.point_through(
                    prof, planes)


def _assert_scan_lookups_match_sets(family):
    """The lookups on the generic profile, on every special profile of the
    scan and on the fiber read off the table at each degenerate value."""
    scan = incidence.degenerate_values(family)
    for prof in [scan.generic] + [v.profile for v in scan.values]:
        _assert_lookups_match_sets(prof)
    for w0 in scan.sigma:
        _assert_lookups_match_sets(scan.generic.fiber(w0))


@pytest.mark.parametrize("text", ELEVEN + SEED1)
def test_mask_lookups_match_set_lookups_on_the_families(text):
    _assert_scan_lookups_match_sets(parse_equation(text))


@settings(max_examples=40, deadline=None)
@given(affine_rows)
def test_mask_lookups_match_set_lookups(pairs):
    forms = [[(a, b) for a, b in row] for row in pairs]
    try:
        family = oracles.family(forms)
    except ValueError:
        assume(False)  # a zero form, or two proportional ones
    _assert_scan_lookups_match_sets(family)


def test_plane_masks_decode_to_their_sorted_planes():
    """``_planes`` inverts ``_plane_mask`` on every subset of planes 1..8,
    the empty set included."""
    for k in range(9):
        for planes in combinations(range(1, 9), k):
            assert incidence._planes(incidence._plane_mask(planes)) == planes
    assert len(incidence._PLANES) == 256


def test_lookups_on_planes_sharing_a_fourfold_line():
    """At w = 0 the planes 1-4 share the line x = y = 0, which z and t
    cross in two points: a set of planes on that line holds no three that
    meet in a point, so ``point_through`` refuses it, and a set with a
    plane off the line gets that plane's point on it.  A line through
    fewer than two planes is refused too."""
    central = incidence.profile(
        parse_equation("xy(x+y+wz)(x+2y+w^2z)zt")).fiber(Fraction(0))
    assert [l.planes for l in central.lines if l.q == 4] == [(1, 2, 3, 4)]
    for on_the_line in ({1, 2, 3, 4}, {2, 4}):
        with pytest.raises(ValueError, match="meet in a point"):
            central.point_through(on_the_line)
    assert central.point_through({2, 4, 5}).planes == (1, 2, 3, 4, 5)
    assert central.point_through({1, 2, 3, 4, 6}).planes == (1, 2, 3, 4, 6)
    assert central.line_through({1, 2, 3, 4}).q == 4
    # fewer than two planes lie on many lines
    for planes in ((), (2,), (3, 3)):
        with pytest.raises(ValueError, match="more than one line"):
            central.line_through(planes)
    _assert_lookups_match_sets(central)


def _assert_fiber_is_eliminated_fiber(family, w0):
    """The fiber read off the family's table is the profile computed from
    the rows evaluated at w0, and both name the same vanishing form or
    coincident pair."""
    generic = incidence.profile(family)
    try:
        ref = incidence.profile(family, at=w0)
    except FormVanishes as err:
        with pytest.raises(FormVanishes) as got:
            generic.fiber(w0)
        assert got.value.index == err.index
        return
    except incidence.CoincidentPlanes as err:
        with pytest.raises(incidence.CoincidentPlanes) as got:
            generic.fiber(w0)
        assert got.value.indices == err.indices
        return
    got = generic.fiber(w0)
    assert got.lines == ref.lines
    assert got.points == ref.points
    assert _coordinates(got) == _coordinates(ref)
    assert got.at == ref.at == w0


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_fiber_read_off_the_table_on_bundled_scenarios(name):
    data = BUNDLED[name]
    _assert_fiber_is_eliminated_fiber(parse_equation(data["equation"]),
                                      Fraction(data.get("w0", "0")))


@pytest.mark.parametrize("text", ELEVEN)
def test_fiber_read_off_the_table_at_each_sigma_value(text):
    family = parse_equation(text)
    for w0 in incidence.degenerate_values(family).sigma:
        _assert_fiber_is_eliminated_fiber(family, w0)


@settings(max_examples=50, deadline=None)
@given(affine_rows)
def test_fiber_read_off_the_table(pairs):
    forms = [[(a, b) for a, b in row] for row in pairs]
    try:
        family = oracles.family(forms)
    except ValueError:
        assume(False)  # a zero form, or two proportional ones
    for w0 in (Fraction(0), Fraction(1), Fraction(-1), Fraction(-1, 2),
               Fraction(2, 3)):
        _assert_fiber_is_eliminated_fiber(family, w0)


def test_a_fiber_has_no_fibers():
    """Only a family's profile has a table over Z[w] to read a fiber off:
    a fiber, computed from scratch or read off the family, is refused."""
    a = parse_equation("xy(x+y+w)")
    generic = incidence.profile(a)
    for fiber in (incidence.profile(a, at=Fraction(1)),
                  generic.fiber(Fraction(1))):
        with pytest.raises(ValueError, match="already the fiber at w = 1$"):
            fiber.fiber(Fraction(0))


def test_fiber_of_a_constant_arrangement_is_the_arrangement():
    a = parse_equation("xyz(x+y+z)(x+y)")
    generic = incidence.profile(a)
    got = generic.fiber(Fraction(3))
    assert (got.lines, got.points, _coordinates(got), got.at) == (
        generic.lines, generic.points, _coordinates(generic), Fraction(3))


def test_special_profiles_reuse_the_generic_records():
    """A special profile of the scan holds the generic line or point object
    itself wherever its plane set (and a point's j) is unchanged."""
    reused = 0
    for text in ELEVEN + SEED1:
        scan = incidence.degenerate_values(parse_equation(text))
        for v in scan.values:
            lines = {l.planes: l for l in v.profile.lines}
            points = {(pt.planes, pt.j): pt for pt in v.profile.points}
            for l in scan.generic.lines:
                if l.planes in lines:
                    assert lines[l.planes] is l, (text, v.w0, l)
                    reused += 1
            for pt in scan.generic.points:
                if (pt.planes, pt.j) in points:
                    assert points[pt.planes, pt.j] is pt, (text, v.w0, pt)
                    reused += 1
    assert reused > 0


def _assert_special_is_from_scratch(family):
    """Every special profile of the scan, folded from the generic one, is
    the profile ``_profile_of`` makes from scratch over the same dependent
    set: the same lines, points and ``j``, pencils and stars.  Its new
    records are exactly those that are not the generic profile's own."""
    scan = incidence.degenerate_values(family)
    generic = scan.generic
    for v in scan.values:
        special = v.profile
        scratch = incidence._profile_of(special._dependent, family.rows,
                                        generic._table, generic._width, v.w0)
        assert special.lines == scratch.lines, v.w0
        assert [pt.j for pt in special.points] == [
            pt.j for pt in scratch.points]
        assert special.points == scratch.points, v.w0
        assert special._pencils == scratch._pencils, v.w0
        assert special._stars == scratch._stars, v.w0
        assert special._line_of == scratch._line_of
        assert special._point_of == scratch._point_of
        new_lines, new_points = special._new
        assert {id(r) for r in new_lines + new_points} == {
            id(r) for r in special.lines + special.points
            if r is not generic._line_of.get(r.mask)
            and r is not generic._point_of.get(r.mask)}


@pytest.mark.parametrize("text", ELEVEN + SEED1)
def test_special_profiles_are_the_profiles_from_scratch(text):
    _assert_special_is_from_scratch(parse_equation(text))


@settings(max_examples=40, deadline=None)
@given(affine_rows)
def test_special_profiles_are_the_profiles_from_scratch_at_random(pairs):
    forms = [[(a, b) for a, b in row] for row in pairs]
    try:
        family = oracles.family(forms)
    except ValueError:
        assume(False)  # a zero form, or two proportional ones
    _assert_special_is_from_scratch(family)


@settings(max_examples=100, deadline=None)
@given(st.one_of(affine_rows.map(lambda pairs: [[(a, b) for a, b in row]
                                                for row in pairs]),
                 poly_rows, big_poly_rows))
def test_packed_coprimality_shortcut_matches_the_prs(rows):
    """The scan leaves out a set whose packed minors have an integer gcd
    below 2^(k-1), k the table's width, only when the pseudo-remainder
    sequence finds their gcd constant or all of them 0; a set it keeps gets
    GCDHEU's candidate at that width, the same gcd whenever it passes its
    division test."""
    try:
        table, k = incidence._minor_table([integer_row(r) for r in rows])
    except incidence.CoincidentPlanes:
        assume(False)
    for packed in table.values():
        polys = [_zw_unpack(m, k) for m in packed if m]
        expected = _zw_prs_gcd(polys) if polys else ()
        value = gcd(*packed)
        if value < 1 << k - 1:
            assert len(expected) <= 1
        else:
            assert _zw_heu(polys, value, k) in (None, expected)


# the family whose gcds set the degree bound at 50 while they ran as
# pseudo-remainder sequences (about 3 s for its scan)
DEGREE_100 = ("xyzt(-2wx-2w^100y-3w^99z+1wt)(-2w^50x+3y-1w^99z+1wt)"
              "(+3w^100x+1wy+1w^99z+1w^50t)(-1w^50x+1w^99y-3wz+3w^99t)")


def test_a_scan_of_degree_100_takes_under_a_second():
    family = parse_equation(DEGREE_100)
    start = time.perf_counter()
    scan = incidence.degenerate_values(family)
    assert time.perf_counter() - start < 1
    assert scan.sigma == tuple(map(Fraction, ("-3", "-1", "-2/3", "1", "9")))
    assert [(f.w0, f.reason) for f in scan.fatal] == [(0, "form 5 vanishes")]
    assert len(scan.unresolved) == 48


# an 8-plane family whose minor gcds are all linear, with coefficients near
# 1e9, so that a divisor search on them takes seconds
LARGE = ("xyzt(x+y+z+t)(x-y+2z-2t)(100003x+y-z+3t)"
         "(1000000007x+w100003y-998244353z+wt)")


def test_linear_gcds_are_read_off(monkeypatch):
    """A linear gcd's root is read off, not searched among the divisors of
    its coefficients, and sigma is the set of rational roots of the
    triples' and quadruples' minor gcds off the fatal ones, as sympy finds
    them (every such root changes the profile of this family)."""
    def refused(n):
        raise AssertionError("searched the divisors of a linear gcd")

    monkeypatch.setattr("octic.exact._divisors", refused)
    family = parse_equation(LARGE)
    scan = incidence.degenerate_values(family)
    monkeypatch.undo()

    rows = sympy.Matrix([[_sympy(c) for c in r] for r in family.rows])

    def roots(polys):
        g = sympy.gcd_list([sympy.expand(p) for p in polys])
        if g == 0 or not g.has(W):
            return set()
        return {Fraction(int(r.p), int(r.q))
                for r in sympy.roots(sympy.Poly(g, W), filter="Q")}

    def subset_roots(k):
        return set().union(*(
            roots([rows.extract(list(s), list(cols)).det()
                   for cols in combinations(range(4), k)])
            for s in combinations(range(8), k)))

    fatal = set().union(*(roots(list(rows.row(i))) for i in range(8)),
                        subset_roots(2))
    assert {f.w0 for f in scan.fatal} == fatal
    assert set(scan.sigma) == (subset_roots(3) | subset_roots(4)) - fatal


def test_zero_is_always_degenerate_here():
    for text in ELEVEN:
        scan = incidence.degenerate_values(parse_equation(text))
        assert Fraction(0) in scan.sigma


def test_scan_values_carry_changes():
    scan = incidence.degenerate_values(parse_equation("xy(x+y+w)"))
    (v,) = [x for x in scan.values if x.w0 == 0]
    assert v.changes
    assert all(c.kind in ("NewTripleLine", "NewPoint", "PointCollision",
                          "PointOnNewLine") for c in v.changes)


# ---------------------------------------------------------------------------
# profile diff kinds


def _diff_at_zero(text):
    generic = incidence.profile(parse_equation(text))
    return incidence.profile_diff(generic, generic.fiber(Fraction(0)))


def test_new_triple_line_kind():
    changes = _diff_at_zero("xy(x+y+w)")
    assert [c.kind for c in changes] == ["NewTripleLine"]
    assert changes[0].involved_planes == (1, 2, 3)


def test_new_point_kind():
    changes = _diff_at_zero("xyz(x+y+z+w)")
    assert [c.kind for c in changes] == ["NewPoint"]
    assert changes[0].involved_planes == (1, 2, 3, 4)


def test_point_on_new_line_kind():
    changes = _diff_at_zero("xy(x+y)z(x+wy+z)")
    assert [c.kind for c in changes] == ["PointOnNewLine"]


@pytest.mark.parametrize("text,kind,sources", [
    ("xy(x+y+wz)(x+2y+wz)(z+wt)", "PointCollision",
     [[1, 2, 3, 4], [2, 3, 4, 5]]),
    # the planes of P1234 collapse onto the line x = y = 0 at w = 0; its
    # generic point (0:0:0:1) misses the special point (0:0:1:-1), so
    # the subset test alone would wrongly report a collision
    ("xy(x+y+wz)(x+2y+wz)(z+t+wt)", "PointOnNewLine", [[2, 3, 4, 5]]),
])
def test_collapsed_sources_are_placed_by_coordinates(text, kind, sources):
    (change,) = _diff_at_zero(text)
    assert (change.kind, [list(s) for s in change.sources]) == (kind, sources)


def _assert_diff_matches_brute_force(family):
    """``profile_diff`` against the brute-force one at every degenerate
    value, on the scan's special profile and on the fiber read off the
    generic one (both share the generic records).  The brute-force diff of
    the fiber's own profile (equal records, other objects) finds the same
    changes, and ``profile_diff`` refuses that profile, which is not
    folded from the generic one."""
    scan = incidence.degenerate_values(family)
    for v in scan.values:
        fiber = scan.generic.fiber(v.w0)
        assert list(v.changes) == oracles.profile_diff(
            scan.generic, v.profile) == incidence.profile_diff(
            scan.generic, fiber) == oracles.profile_diff(scan.generic, fiber)
        try:
            own = incidence.profile(family, at=v.w0)
        except incidence.CoincidentPlanes:
            continue
        assert oracles.profile_diff(scan.generic, own) == list(v.changes)
        with pytest.raises(ValueError, match="not a fiber folded"):
            incidence.profile_diff(scan.generic, own)


@pytest.mark.parametrize("text", ELEVEN + SEED1)
def test_diff_matches_brute_force_on_the_families(text):
    _assert_diff_matches_brute_force(parse_equation(text))


@settings(max_examples=60, deadline=None)
@given(affine_rows)
def test_diff_matches_brute_force(pairs):
    forms = [[(a, b) for a, b in row] for row in pairs]
    try:
        family = oracles.family(forms)
    except ValueError:
        assume(False)  # a zero form, or two proportional ones
    _assert_diff_matches_brute_force(family)


def test_no_diff_at_generic_value():
    generic = incidence.profile(parse_equation("xy(x+y+w)"))
    assert incidence.profile_diff(generic, generic.fiber(Fraction(5))) == []


def test_diff_refuses_a_profile_not_folded_from_the_generic_one():
    """A profile computed from scratch, or a fiber folded from another
    profile of the same family, is not diffed against ``generic``."""
    a = parse_equation("xy(x+y+w)")
    generic = incidence.profile(a)
    for special in (incidence.profile(a, at=Fraction(0)),
                    incidence.profile(a).fiber(Fraction(0))):
        with pytest.raises(ValueError, match="not a fiber folded"):
            incidence.profile_diff(generic, special)


# ---------------------------------------------------------------------------
# the octic condition


def test_octic_check_accepts_a_mild_arrangement():
    a = parse_equation("xyzt(x+y+z)(x+y+t)(x+z+t)(y+z+t)")
    assert incidence.octic_violations(incidence.profile(a)) == ()


def test_octic_check_flags_a_four_plane_pencil():
    a = parse_equation("xy(x+y)(x+2y)zt(x+z)(y+z)")
    assert incidence.octic_violations(incidence.profile(a)) == (
        ("line", (1, 2, 3, 4)), ("point", (1, 2, 3, 4, 5, 7, 8)))


def test_coincident_planes_at_fatal_value():
    a = parse_equation("xyz(x+y+wz)(x+wy+z)")
    with pytest.raises(incidence.CoincidentPlanes):
        incidence.profile(a, at=Fraction(1))


def test_vanishing_form_is_named_before_any_pair():
    """A form that vanishes at w0 is named by the profile of the fiber and
    by the fiber read off the table alike, before the pairs it makes
    coincide."""
    a = parse_equation("xz(y+wy)")  # (1+w) y dies at w = -1
    for fiber in (lambda: incidence.profile(a, at=Fraction(-1)),
                  lambda: incidence.profile(a).fiber(Fraction(-1))):
        with pytest.raises(FormVanishes,
                           match="^form 3 vanishes identically at w = -1$"):
            fiber()

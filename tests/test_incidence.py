"""The minors kernel, incidence profiles against an independent brute-force
oracle, projective invariance, and the degeneration scan over the parameter
line."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from oracles import oracle, random_constant_arrangement, random_gl4, transform

from octic import incidence
from octic.exact import ExactMatrix, Poly, poly_gcd, rref
from octic.forms import parse_equation, specialize

ELEVEN = [
    "xy(x+y+w)",
    "xyz(x+y+z+w)",
    "xy(x+y)z(x+wy+z)",
    "xy(x+y)z(x+z+w)",
    "xy(x+y)z(x+y+z+w)",
    "xyz(x+y+z)(x+y+w)",
    "xy(x+y+w)z",
    "xy(x+y+zw)z",
    "xyz(x+y+z)(x-y+w)",
    "xyz(x+y+wz)(x+wy+z)",
    "xyz(x+y+wz)(x+2y+z)",
]


# ---------------------------------------------------------------------------
# the minors kernel

W = sympy.Symbol("w")
QW = sympy.QQ.frac_field(W)

affine_rows = st.lists(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
             min_size=4, max_size=4),
    min_size=2, max_size=6)


def _assert_primitive(vec):
    nonzero = [p for p in vec if p]
    assert nonzero[0].lead > 0
    if all(p.degree > 0 for p in nonzero):
        g = nonzero[0]
        for p in nonzero[1:]:
            g = poly_gcd(g, p)
        assert g.degree == 0
    coeffs = [c for p in vec for c in p.coeffs]
    assert all(c.denominator == 1 for c in coeffs)
    assert gcd(*(c.numerator for c in coeffs)) == 1


@settings(max_examples=150, deadline=None)
@given(affine_rows)
def test_rank_and_kernel_over_q_w(pairs):
    rows = [[Poly([a, b]) for a, b in row] for row in pairs]
    reference = DomainMatrix(
        [[QW.from_sympy(a + b * W) for a, b in row] for row in pairs],
        (len(pairs), 4), QW).rank()
    r = incidence.rank(rows)
    assert r == reference
    basis = incidence.kernel(rows)
    assert len(basis) == 4 - r
    for vec in basis:
        _assert_primitive(vec)
        for row in rows:
            assert not sum((x * y for x, y in zip(row, vec)), Poly())


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=1, max_size=6))
def test_kernel_matches_rref_on_constant_rows(ints):
    rows = [[Fraction(x) for x in row] for row in ints]
    rank, ref_kernel, _ = rref(ExactMatrix(rows))
    assert incidence.rank(rows) == rank
    expected = tuple(sorted((incidence.primitive_vector(v) for v in ref_kernel),
                            key=lambda vec: tuple(p.coeffs for p in vec)))
    assert incidence.kernel(rows) == expected
    as_polys = [[Poly([x]) for x in row] for row in rows]
    assert incidence.kernel(as_polys) == expected


def test_minors_are_the_maximal_minors():
    w = Poly.x()
    rows = [[w, Poly([1]), Poly(), Poly([2])],
            [Poly([1]), w, Poly([3]), Poly()]]
    ms = incidence.minors(rows)
    assert len(ms) == 6
    assert ms[0] == w * w - Poly([1])
    assert incidence.minors(rows + rows[:1]) == [Poly()] * 4
    with pytest.raises(ValueError):
        incidence.minors(rows * 3)


def test_primitive_vector_clears_content():
    w = Poly.x()
    vec = incidence.primitive_vector(
        [w * Poly([-2, 2]), Poly(), Poly([0, 4]), w * w * Poly([Fraction(2, 3)])])
    assert vec == (Poly([-3, 3]), Poly(), Poly([6]), Poly([0, 1]))
    assert incidence.primitive_vector(
        [Fraction(0), Fraction(-1, 2), Fraction(3, 4), 0]) == (
            Poly(), Poly([2]), Poly([-3]), Poly())
    with pytest.raises(ValueError):
        incidence.primitive_vector([Fraction(0)] * 4)


# ---------------------------------------------------------------------------
# brute-force oracle for small constant arrangements


def test_profile_matches_brute_force_oracle():
    rng = random.Random(1234)
    done = 0
    while done < 120:
        n = rng.randint(3, 5)
        rows, arr = random_constant_arrangement(rng, n)
        try:
            expected_lines, expected_points = oracle(rows)
        except incidence.CoincidentPlanes:
            with pytest.raises(incidence.CoincidentPlanes):
                incidence.profile(arr)
            continue
        prof = incidence.profile(arr)
        got_lines = {l.planes: l.q for l in prof.lines}
        got_points = {pt.planes: (pt.p, pt.j) for pt in prof.points}
        assert got_lines == expected_lines, rows
        assert got_points == expected_points, rows
        done += 1


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
    key = incidence.profile(specialize(a, Fraction(0))).combinatorial_key()
    for _ in range(20):
        b = transform(a, random_gl4(rng))
        got = incidence.profile(specialize(b, Fraction(0))).combinatorial_key()
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
    a = parse_equation(text)
    generic = incidence.profile(a)
    special = incidence.profile(specialize(a, Fraction(0)), at=Fraction(0))
    return incidence.profile_diff(generic, special)


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


def test_no_diff_at_generic_value():
    a = parse_equation("xy(x+y+w)")
    generic = incidence.profile(a)
    special = incidence.profile(specialize(a, Fraction(5)), at=Fraction(5))
    assert incidence.profile_diff(generic, special) == []


# ---------------------------------------------------------------------------
# the octic condition


def test_octic_check_accepts_a_mild_arrangement():
    a = parse_equation("xyzt(x+y+z)(x+y+t)(x+z+t)(y+z+t)")
    chk = incidence.is_octic(incidence.profile(a))
    assert chk.valid
    assert chk.violations == ()


def test_octic_check_flags_a_four_plane_pencil():
    a = parse_equation("xy(x+y)(x+2y)zt(x+z)(y+z)")
    chk = incidence.is_octic(incidence.profile(a))
    assert not chk.valid
    assert any(getattr(v, "q", 0) >= 4 for v in chk.violations)


def test_octic_check_needs_eight_planes():
    a = parse_equation("xy(x+y+w)")
    with pytest.raises(incidence.WrongPlaneCount):
        incidence.is_octic(incidence.profile(a))


def test_coincident_planes_at_fatal_value():
    a = parse_equation("xyz(x+y+wz)(x+wy+z)")
    with pytest.raises(incidence.CoincidentPlanes):
        incidence.profile(specialize(a, Fraction(1)), at=Fraction(1))

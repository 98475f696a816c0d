"""Exact-arithmetic kernel: polynomials, determinants, rref over Q."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from octic.exact import (ExactMatrix, Poly, fraction_str, parse_fraction,
                         poly_det, poly_gcd, rational_roots, rref,
                         squarefree_factors)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
small_polys = st.lists(fractions, max_size=5).map(Poly)


@given(small_polys, small_polys, fractions)
def test_poly_ring_laws(p, q, v):
    assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)
    assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)
    assert (p - q) + q == p


@given(small_polys, small_polys)
def test_poly_divmod(p, q):
    if q.is_zero():
        with pytest.raises(Exception):
            p.divmod(q)
        return
    quo, rem = p.divmod(q)
    assert quo * q + rem == p
    assert rem.degree < q.degree or rem.is_zero()


def test_poly_normalization():
    assert Poly([0, 0]).is_zero()
    assert Poly([1, 2, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([3]).degree == 0
    assert Poly().degree == -1


def test_poly_str_ascending():
    p = Poly([1, -2, 1])
    s = str(p)
    assert "w" in s


@given(small_polys, small_polys)
def test_gcd_divides_both(p, q):
    if p.is_zero() and q.is_zero():
        return
    g = poly_gcd(p, q)
    assert not g.is_zero()
    for f in (p, q):
        if not f.is_zero():
            assert (f % g).is_zero()


def test_squarefree_and_roots():
    # (w - 1)^2 (w + 2) (2w - 1)
    p = (Poly([-1, 1]) ** 2) * Poly([2, 1]) * Poly([-1, 2])
    roots, leftovers = rational_roots(p)
    assert dict(roots) == {Fraction(1): 2, Fraction(-2): 1, Fraction(1, 2): 1}
    assert leftovers == []
    factors = squarefree_factors(p)
    assert sorted(mult for _, mult in factors) == [1, 2]


def test_rational_roots_irreducible_leftover():
    p = Poly([1, 0, 1]) * Poly([-3, 1])  # (w^2 + 1)(w - 3)
    roots, leftovers = rational_roots(p)
    assert dict(roots) == {Fraction(3): 1}
    assert len(leftovers) == 1
    assert leftovers[0].monic() == Poly([1, 0, 1])


W = sympy.Symbol("w")


def _sympy_poly(p: Poly) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], W, domain=sympy.QQ)


# a product of linear factors with multiplicities and of factors of degree
# 2 or 3, many of them without a rational root, times a rational constant;
# small enough that the divisor search on the constant terms stays short
linear_factors = st.lists(
    st.tuples(st.fractions(-6, 6, max_denominator=4), st.integers(1, 2)),
    max_size=3)
other_factors = st.lists(
    st.tuples(st.lists(st.integers(-9, 9), min_size=2, max_size=3),
              st.integers(1, 2)),
    max_size=2)


@settings(max_examples=200, deadline=None)
@given(linear_factors, other_factors,
       st.fractions(-30, 30, max_denominator=7).filter(bool))
def test_rational_roots_match_sympy(linears, others, scale):
    p = Poly([scale])
    for root, mult in linears:
        p = p * Poly([-root, 1]) ** mult
    for low, mult in others:
        p = p * Poly(low + [1]) ** mult
    roots, leftovers = rational_roots(p)
    sp = _sympy_poly(p)
    expected = {Fraction(int(r.p), int(r.q)): m
                for r, m in sympy.roots(sp, filter="Q").items()}
    assert roots == sorted(expected.items())
    # the leftovers: monic, square-free, pairwise coprime, without a
    # rational root, and holding every factor of p of degree >= 2
    lefts = [_sympy_poly(q) for q in leftovers]
    for q, lq in zip(leftovers, lefts):
        assert q.lead == 1 and q.degree >= 2
        assert lq.gcd(lq.diff(W)).degree() == 0
        assert not sympy.roots(lq, filter="Q")
        assert sp.rem(lq).is_zero
    for a, b in combinations(lefts, 2):
        assert a.gcd(b).degree() == 0
    for factor, _ in sp.factor_list()[1]:
        if factor.degree() >= 2:
            assert sum(lq.rem(factor).is_zero for lq in lefts) == 1


def test_a_linear_factor_needs_no_divisor_search(monkeypatch):
    def refused(n):
        raise AssertionError("searched the divisors of a linear factor")

    monkeypatch.setattr("octic.exact._divisors", refused)
    p = Poly([998244353, -1000000007]) * Poly([0, 1]) ** 2
    assert rational_roots(p) == (
        [(Fraction(0), 2), (Fraction(998244353, 1000000007), 1)], [])


points = st.fractions(-40, 40, max_denominator=15)


@given(st.lists(st.fractions(-50, 50, max_denominator=12), max_size=6)
       .map(Poly), points)
def test_evaluate_matches_horner(p, v):
    horner = Fraction(0)
    for c in reversed(p.coeffs):
        horner = horner * v + c
    assert p.evaluate(v) == horner
    assert isinstance(p.evaluate(v), Fraction)


def test_fraction_str_round_trip():
    for x in (Fraction(0), Fraction(3), Fraction(-3), Fraction(1, 2),
              Fraction(-22, 7)):
        assert parse_fraction(fraction_str(x)) == x
    assert fraction_str(Fraction(4, 2)) == "2"
    assert fraction_str(Fraction(1, 2)) == "1/2"


def _random_matrix(rng, rows, cols):
    return ExactMatrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(cols)] for _ in range(rows)])


def test_rref_kernel_500_random():
    rng = random.Random(20260822)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        rank, kernel, pivots = rref(m)
        assert rank + len(kernel) == cols
        assert rank == len(pivots)
        for v in kernel:
            assert all(x == 0 for x in m.matvec(v))
        # canonical: each kernel vector has a 1 in a distinct free column
        # and zeros in the other free columns
        free = [j for j in range(cols) if j not in pivots]
        assert len(free) == len(kernel)
        for v, j in zip(kernel, free):
            assert v[j] == 1
            for other in free:
                if other != j:
                    assert v[other] == 0


def test_rref_rank_matches_scaling():
    rng = random.Random(7)
    for _ in range(50):
        m = _random_matrix(rng, 4, 4)
        scaled = ExactMatrix([[3 * x for x in row] for row in m.entries])
        assert rref(m)[0] == rref(scaled)[0]


def test_matvec_shape_guard():
    m = ExactMatrix([[Fraction(1), Fraction(2)]])
    with pytest.raises(Exception):
        m.matvec([Fraction(1)])


@given(st.lists(st.lists(small_polys, min_size=3, max_size=3),
                min_size=3, max_size=3), fractions)
def test_poly_det_commutes_with_evaluation(grid, v):
    at_v = poly_det([[p.evaluate(v) for p in row] for row in grid])
    assert isinstance(at_v, Fraction)
    assert poly_det(grid).evaluate(v) == at_v


def test_exact_matrix_is_over_q_only():
    assert ExactMatrix([[1, Fraction(1, 2)]]).field == "Q"
    with pytest.raises(TypeError):
        ExactMatrix([[Poly([0, 1]), 1]])

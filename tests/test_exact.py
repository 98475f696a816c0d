"""Exact-arithmetic kernel: polynomials over Q, the Z[w] kernel, rational
roots and ranks over Q, against sympy or Horner's rule where a reference is
needed."""

import random
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations, zip_longest
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from oracles import evaluate, zw_mul

from octic import exact
from octic.exact import (Poly, _integer_row, _zw_at, _zw_div, _zw_gcd,
                         _zw_pack, _zw_squarefree, _zw_trim, _zw_unpack,
                         fraction_str, parse_fraction, rank, rational_roots)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
small_polys = st.lists(fractions, max_size=5).map(Poly)
# Z[w] polynomials as ascending coefficient tuples without trailing zeros
zw_polys = st.lists(st.integers(-30, 30), max_size=4).map(
    lambda cs: _zw_trim(list(cs)))


@given(small_polys, small_polys, fractions)
def test_poly_ring_laws(p, q, v):
    assert evaluate((p + q).coeffs, v) == (
        evaluate(p.coeffs, v) + evaluate(q.coeffs, v))
    assert evaluate((-p).coeffs, v) == -evaluate(p.coeffs, v)
    assert (p + -q) + q == p


@given(zw_polys, zw_polys.filter(bool), zw_polys)
def test_zw_exact_division(a, b, r):
    """The quotient where ``b`` divides, None where a remainder of lower
    degree is left over (over Q[w] for primitive ``b``)."""
    assert _zw_div(zw_mul(a, b), b) == a
    r = r[:len(b) - 1]
    if any(r) and gcd(*b) == 1:
        assert _zw_div(_zw_trim([x + y for x, y in zip_longest(
            zw_mul(a, b), r, fillvalue=0)]), b) is None


@pytest.mark.parametrize("k", [2, 3, 6, 17, 64, 200])
def test_zw_pack_round_trips_at_the_digit_limits(k):
    """Balanced base-2^k digits hold exactly [-2^(k-1), 2^(k-1) - 1]."""
    hi, lo = 2 ** (k - 1) - 1, -2 ** (k - 1)
    cases = [(hi,), (lo,), (0, hi), (0, lo), (hi, lo, hi), (lo, hi, lo),
             (lo, lo, lo), (hi, 0, 0, hi), (lo, 0, lo), (-hi, hi, lo, hi),
             (0,) * 3000 + (lo,), (hi,) + (0,) * 3000 + (lo, 0, hi)]
    for c in cases:
        c = _zw_trim(list(c))
        assert _zw_unpack(_zw_pack(c, k), k) == c, c
    assert _zw_unpack(_zw_pack((hi + 1,), k), k) != (hi + 1,)
    assert _zw_unpack(0, k) == ()


@given(st.integers(2, 80).flatmap(lambda k: st.tuples(st.just(k), st.lists(
    st.one_of(st.just(0), st.integers(-2 ** (k - 1), 2 ** (k - 1) - 1)),
    max_size=8))))
def test_zw_pack_round_trips(case):
    k, coeffs = case
    c = _zw_trim(coeffs)
    assert _zw_pack(c, k) == evaluate(c, 2 ** k)
    assert _zw_unpack(_zw_pack(c, k), k) == c


def test_poly_normalization():
    assert Poly([0, 0]).coeffs == () and not Poly([0, 0])
    assert Poly([1, 2, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([3]).degree == 0
    assert Poly().degree == -1


def test_poly_equality_matches_its_hash():
    # only a Poly equals a Poly; arithmetic still coerces numbers
    assert Poly([3]) != 3 and Poly() != 0
    assert len({Poly([3]), 3}) == 2
    p, q = Poly([1, 2, 0]), Poly(["1", Fraction(4, 2)])
    assert p == q and hash(p) == hash(q)
    assert Poly([0, 2]) + 1 == q


def test_poly_str_ascending():
    p = Poly([1, -2, 1])
    s = str(p)
    assert "w" in s


W = sympy.Symbol("w")


def _sympy_poly(p: tuple) -> sympy.Poly:
    return sympy.Poly(list(reversed(p)), W, domain=sympy.ZZ)


def _as_zw(p: sympy.Poly) -> tuple:
    """A sympy polynomial with integer coefficients as a Z[w] tuple."""
    return _zw_trim([int(c) for c in reversed(p.all_coeffs())])


@given(zw_polys, zw_polys)
def test_gcd_divides_both(p, q):
    g = _zw_gcd([p, q])
    if not p and not q:
        assert g == ()
        return
    assert g
    for f in (p, q):
        assert zw_mul(_zw_div(f, g), g) == f


# coefficients up to 2^40, so that a first width forced below the bound
# is doubled past it, or is not within the tries and leaves the gcd to the
# pseudo-remainder sequence
big_zw_polys = st.lists(st.one_of(st.integers(-30, 30),
                                  st.integers(-2 ** 40, 2 ** 40)),
                        max_size=4).map(lambda cs: _zw_trim(list(cs)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(zw_polys, big_zw_polys), min_size=1, max_size=6),
       st.one_of(zw_polys, big_zw_polys), st.sampled_from([0, 0, 2, 3, 5]))
def test_zw_gcd_matches_sympy_gcd(polys, common, k):
    """The Z[w] gcd is the primitive part of sympy's gcd up to sign; a
    common factor makes it nontrivial half the time.  ``k`` > 0 forces a
    first width, 2^k below the heuristic gcd's bound for all but the
    smallest inputs."""
    polys = [zw_mul(p, common) for p in polys]
    g = _zw_gcd(polys, k)
    nonzero = [_sympy_poly(p) for p in polys if p]
    if not nonzero:
        assert g == ()
        return
    expected = _as_zw(reduce(sympy.gcd, nonzero).primitive()[1])
    assert g in (expected, tuple(-c for c in expected))
    assert g[-1] > 0 and gcd(*g) == 1


# (w - 3)(2w + 1) times w + 7c and w^2 - 5 scaled: c = 1 gives heights 38
# and 25, so the bound 2 * 25 + 2 = 52 first holds at 2^6; c = 2^40 keeps
# it above every width up to 2^16
@pytest.mark.parametrize("c, k, widths, fallbacks", [
    (1, 0, [6], 0),        # the first width meets the bound
    (1, 2, [8], 0),        # 2^2 and 2^4 are below it, 2^8 is not
    (2 ** 40, 2, [], 1),   # 2^2 ... 2^16 are all below it
])
def test_zw_gcd_doubles_a_narrow_width_then_falls_back(monkeypatch, c, k,
                                                       widths, fallbacks):
    """A first width below the bound is doubled up to it, and after the
    last try the pseudo-remainder sequence decides; each gives the gcd."""
    tried, prs = [], []
    heu, prs_gcd = exact._zw_heu, exact._zw_prs_gcd

    def recorded_heu(polys, value, width):
        tried.append(width)
        return heu(polys, value, width)

    def recorded_prs(polys):
        prs.append(polys)
        return prs_gcd(polys)

    monkeypatch.setattr(exact, "_zw_heu", recorded_heu)
    monkeypatch.setattr(exact, "_zw_prs_gcd", recorded_prs)
    common = zw_mul((-3, 1), (1, 2))
    polys = [zw_mul(common, (7 * c, 1)), zw_mul(common, (-5 * c, 0, c))]
    assert _zw_gcd(polys, k) == (-3, -5, 2)
    assert (tried, len(prs)) == (widths, fallbacks)


def test_squarefree_and_roots():
    # (w - 1)^2 (w + 2) (2w - 1)
    p = zw_mul(zw_mul((-1, 1), (-1, 1)), zw_mul((2, 1), (-1, 2)))
    roots, leftovers = rational_roots(p)
    assert dict(roots) == {Fraction(1): 2, Fraction(-2): 1, Fraction(1, 2): 1}
    assert leftovers == []
    # one factor per multiplicity, in increasing multiplicity
    assert _zw_squarefree(p) == [(-2, 3, 2), (-1, 1)]


def test_rational_roots_irreducible_leftover():
    p = zw_mul((1, 0, 1), (-3, 1))  # (w^2 + 1)(w - 3)
    roots, leftovers = rational_roots(p)
    assert dict(roots) == {Fraction(3): 1}
    assert leftovers == [(1, 0, 1)]


# a product of linear factors with multiplicities and of factors of degree
# 2 or 3, many of them without a rational root, times an integer constant;
# small enough that the divisor search on the constant terms stays short
linear_factors = st.lists(
    st.tuples(st.fractions(-6, 6, max_denominator=4), st.integers(1, 2)),
    max_size=3)
other_factors = st.lists(
    st.tuples(st.lists(st.integers(-9, 9), min_size=2, max_size=3),
              st.integers(1, 2)),
    max_size=2)


@settings(max_examples=200, deadline=None)
@given(linear_factors, other_factors, st.integers(-30, 30).filter(bool))
def test_rational_roots_match_sympy(linears, others, scale):
    p = (scale,)
    for root, mult in linears:
        for _ in range(mult):
            p = zw_mul(p, (-root.numerator, root.denominator))
    for low, mult in others:
        for _ in range(mult):
            p = zw_mul(p, tuple(low) + (1,))
    roots, leftovers = rational_roots(p)
    sp = _sympy_poly(p)
    expected = {Fraction(int(r.p), int(r.q)): m
                for r, m in sympy.roots(sp, filter="Q").items()}
    assert roots == sorted(expected.items())
    # the leftovers: primitive, square-free, pairwise coprime, without a
    # rational root, and holding every factor of p of degree >= 2
    lefts = [_sympy_poly(q) for q in leftovers]
    for q, lq in zip(leftovers, lefts):
        assert q[-1] > 0 and gcd(*q) == 1 and len(q) >= 3
        assert lq.gcd(lq.diff(W)).degree() == 0
        assert not sympy.roots(lq, filter="Q")
        assert sp.rem(lq).is_zero
    for a, b in combinations(lefts, 2):
        assert a.gcd(b).degree() == 0
    for factor, _ in sp.factor_list()[1]:
        if factor.degree() >= 2:
            assert sum(lq.rem(factor).is_zero for lq in lefts) == 1
    # and they are the square-free part of p without its linear factors
    rest = sp
    for r, m in expected.items():
        rest = rest.exquo(sympy.Poly([r.denominator, -r.numerator], W) ** m)
    expected_lefts = [_as_zw(f) for f, _ in sympy.sqf_list(rest)[1]]
    expected_lefts = [f if f[-1] > 0 else tuple(-c for c in f)
                      for f in expected_lefts]
    assert sorted(leftovers) == sorted(expected_lefts)


def test_a_linear_factor_needs_no_divisor_search(monkeypatch):
    def refused(n):
        raise AssertionError("searched the divisors of a linear factor")

    monkeypatch.setattr("octic.exact._divisors", refused)
    p = (0, 0, 998244353, -1000000007)
    assert rational_roots(p) == (
        [(Fraction(0), 2), (Fraction(998244353, 1000000007), 1)], [])


points = st.fractions(-40, 40, max_denominator=15)


@given(st.lists(small_polys, min_size=4, max_size=4).filter(any))
def test_integer_row_is_a_primitive_multiple(row):
    """A row of ``Poly``s becomes one positive rational multiple of itself
    with integer coefficients that share no factor."""
    ints = _integer_row(row)
    cs = [c for x in ints for c in x]
    assert all(isinstance(c, int) for c in cs) and gcd(*cs) == 1
    k = next(i for i, x in enumerate(row) if x)
    factor = Fraction(ints[k][-1]) / row[k].coeffs[-1]
    assert factor > 0
    assert [tuple(Fraction(c) for c in x) for x in ints] == [
        tuple(factor * c for c in x.coeffs) for x in row]


def test_fraction_str_round_trip():
    for x in (Fraction(0), Fraction(3), Fraction(-3), Fraction(1, 2),
              Fraction(-22, 7)):
        assert parse_fraction(fraction_str(x)) == x
    assert fraction_str(Fraction(4, 2)) == "2"
    assert fraction_str(Fraction(1, 2)) == "1/2"


def test_parse_fraction_bounds_the_exponent_and_the_value():
    # the bound is the interpreter's limit on printed digits, 4300 by
    # default: 10^4299 prints 4300 digits, 10^4300 one more
    assert parse_fraction("1e4299") == 10 ** 4299
    assert parse_fraction(" 25E-0_4 ") == Fraction(1, 400)
    assert parse_fraction("1.5e-4299") == Fraction(3, 2 * 10 ** 4299)
    for text in ("1e4301", "1.5e-4301", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent"):
            parse_fraction(text)
    # a value over the limit, from an exponent within it or from the digits
    # themselves, which the interpreter would not read as an integer
    for text in ("1e4300", "1e-4300", "123e4299", "1" * 5000,
                 "1/" + "7" * 4301, "0." + "0" * 4300 + "1"):
        with pytest.raises(ValueError, match="has more than 4300 digits"):
            parse_fraction(text)
    # with the limit off, the bound is its default, so no input hangs
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(ValueError, match="exceeds 4300"):
            parse_fraction("1e100000000")
    finally:
        sys.set_int_max_str_digits(limit)


def test_rank_500_random():
    rng = random.Random(20260822)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
              for _ in range(cols)] for _ in range(rows)]
        assert rank(m) == sympy.Matrix(m).rank()


# matrices of 0 to 5 rows of 0 to 5 rationals, mostly small integers so that
# dependent rows turn up
matrices = st.integers(0, 5).flatmap(lambda cols: st.lists(
    st.lists(st.one_of(st.integers(-2, 2), fractions), min_size=cols,
             max_size=cols), max_size=5))


@settings(max_examples=200, deadline=None)
@given(matrices, st.data())
def test_rank_is_that_of_the_transpose_and_of_a_scaled_row(m, data):
    r = rank(m)
    assert r == sympy.Matrix(m).rank()
    assert rank(list(zip(*m))) == r
    if m:
        i = data.draw(st.integers(0, len(m) - 1))
        c = data.draw(fractions.filter(bool))
        assert rank(m[:i] + [[c * x for x in m[i]]] + m[i + 1:]) == r


def test_rank_of_empty_and_zero_matrices():
    assert rank([]) == 0
    assert rank([[], []]) == 0
    assert rank([[0, 0], [Fraction(0), 0]]) == 0
    assert rank([[0, 0, 1], [0, 0, 2]]) == 1


def test_rank_refuses_a_ragged_matrix():
    with pytest.raises(ValueError, match="ragged"):
        rank([[1, 2], [3]])


@given(st.lists(zw_polys, min_size=1, max_size=4), points)
def test_zw_at_evaluates_over_one_denominator(polys, v):
    """The values at v = p/q, each times the same q^d, d the top degree."""
    values = _zw_at(polys, v)
    assert all(len(x) <= 1 and all(isinstance(c, int) for c in x)
               for x in values)
    scale = v.denominator ** (max(map(len, polys)) - 1)
    assert [x[0] if x else 0 for x in values] == [
        evaluate(p, v) * scale for p in polys]

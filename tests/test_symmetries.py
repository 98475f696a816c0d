"""The answer is a fact about the family, not about how it is written.

Each seeded family of ``oracles.SEED1``, and one with a fatal value, is
rewritten without changing the family: w -> 1/w (each form times w to its
own degree), w -> w + 1, w -> 2w, an integer change of coordinates of
determinant 1, and another order of the factors.  The degenerate and fatal values must map over, and
each value keep its tags.  Its residual must stay too, wherever both
default-order traces complete, except under another order of the factors:
that renumbers the planes, which set the default blow-up order, and the
residual depends on that order (ROADMAP item 1).
"""

import random
from functools import cache

import pytest

from oracles import SEED1, family, plus, times, transform

from octic import cli, incidence
from octic.forms import parse_equation
from octic.resolve import TraceAborted, schedule, trace_central_fiber


def compose(p: tuple, q: tuple) -> tuple:
    """p(q(w)) for ascending coefficient tuples ``p`` and ``q``, by
    Horner's rule."""
    out = ()
    for c in reversed(p):
        out = plus(times(out, q), (c,))
    return out


def substituted(a, q: tuple):
    """The family ``a`` with w replaced by the polynomial ``q``."""
    return family([[compose(p, q) for p in row] for row in a.rows])


def inverted(a):
    """The family ``a`` with w replaced by 1/w, each form times w to its
    own degree: its coefficient tuples padded to one length and
    reversed."""
    rows = []
    for row in a.rows:
        n = max(map(len, row))
        rows.append([tuple(reversed(p + (0,) * (n - len(p)))) for p in row])
    return family(rows)


UNIMODULAR = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]]

# name -> (the family rewritten, where a value r of the family goes)
REWRITES = {
    "w->1/w": (inverted, lambda r: 1 / r),
    "w->w+1": (lambda a: substituted(a, (1, 1)), lambda r: r - 1),
    "w->2w": (lambda a: substituted(a, (0, 2)), lambda r: r / 2),
    "coordinates": (lambda a: transform(a, UNIMODULAR), lambda r: r),
}


def tags_of(generic, value) -> list:
    """The tags ``sigma`` prints for a degenerate value, with the planes of
    its changes left out: plane numbers follow the order of the factors."""
    tags = cli._classify_value(generic, value)
    for change in value.changes:
        tags = [t.replace(str(change.involved_planes), "") for t in tags]
    return sorted(set(tags))


def answers(a):
    """The answer for the family ``a``: each degenerate value's tags, the
    residual of each value whose default-order trace completes, and the
    fatal values."""
    scan = incidence.degenerate_values(a)
    sched = schedule(incidence.profile(a))
    tags, residuals = {}, {}
    for v in scan.values:
        tags[v.w0] = tags_of(scan.generic, v)
        try:
            residuals[v.w0] = trace_central_fiber(a, v.w0, sched)[1]
        except TraceAborted:
            pass
    return tags, residuals, {f.w0 for f in scan.fatal}


# the seeded families, and one whose eighth plane meets the fifth at w = 1
FAMILIES = SEED1 + ["xyzt(x+y+z+t)(x-y+2z-2t)(2x+y-z+3t)(wx+2y-wy+z+t)"]


@cache
def seeded(k: int):
    a = parse_equation(FAMILIES[k])
    return a, answers(a)


def _domain(values, rewrite: str) -> set:
    """The values a rewrite maps over: all of them, but w = 0 under
    w -> 1/w, which exchanges it with w = infinity, where no scan looks."""
    return {r for r in values if r or rewrite != "w->1/w"}


@pytest.mark.parametrize("rewrite", sorted(REWRITES))
def test_rewriting_the_family_keeps_its_answer(rewrite):
    make, to = REWRITES[rewrite]
    compared = fatal_values = 0
    for k in range(len(FAMILIES)):
        a, (tags, residuals, fatal) = seeded(k)
        tags2, residuals2, fatal2 = answers(make(a))
        assert {to(r) for r in _domain(tags, rewrite)} == \
            _domain(tags2, rewrite), k
        assert {to(r) for r in _domain(fatal, rewrite)} == \
            _domain(fatal2, rewrite), k
        fatal_values += len(_domain(fatal, rewrite))
        for r in _domain(tags, rewrite):
            assert tags2[to(r)] == tags[r], (k, r)
            if r in residuals and to(r) in residuals2:
                assert residuals2[to(r)] == residuals[r], (k, r)
                compared += 1
    assert compared > 0 and fatal_values > 0


def test_the_order_of_the_factors_keeps_the_tags():
    """One shuffle of the factors per family renumbers the planes; the
    values and their tags stay (the residuals need not: ROADMAP item 1)."""
    rng = random.Random(7)
    for k in range(len(FAMILIES)):
        a, (tags, _, fatal) = seeded(k)
        rows = list(a.rows)
        rng.shuffle(rows)
        tags2, _, fatal2 = answers(family(rows))
        assert (tags2, fatal2) == (tags, fatal), k

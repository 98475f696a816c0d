"""Brute-force incidence profile of one fiber with sympy, independent of
``octic``: the same computation as the test suite's oracle, on rows of
rationals.  Returns the combinatorial key as
``({line planes: q}, {point planes: (p, j)})`` with 1-based planes."""

from __future__ import annotations

from itertools import combinations

import sympy


def profile_key(rows) -> tuple:
    n = len(rows)
    mat = lambda rs: sympy.Matrix([[sympy.Rational(str(x)) for x in r] for r in rs])  # noqa: E731
    pencils = set()
    for i, j in combinations(range(n), 2):
        pencils.add(tuple(sorted(
            k for k in range(n)
            if k in (i, j) or mat([rows[i], rows[j], rows[k]]).rank() == 2)))
    lines = {tuple(m + 1 for m in mem): len(mem) for mem in pencils}
    points = set()
    for trip in combinations(range(n), 3):
        m = mat([rows[k] for k in trip])
        if m.rank() != 3:
            continue
        v = m.nullspace()[0]
        points.add(tuple(
            k + 1 for k in range(n)
            if sum(sympy.Rational(str(rows[k][t])) * v[t] for t in range(4)) == 0))
    big = [set(l) for l, q in lines.items() if q >= 3]
    return lines, {mem: (len(mem), sum(1 for s in big if s <= set(mem)))
                   for mem in points}

"""Independent checks shared between test modules: a sympy brute-force
incidence oracle, random projective coordinate changes, the relations
among a cycle model's rows and schoolbook multiplication in Z[w]."""

from fractions import Fraction
from functools import cache
from itertools import combinations

import sympy
from sympy.polys.matrices import DomainMatrix

from octic import incidence
from octic.exact import Poly, rref
from octic.forms import Arrangement, LinearForm, ParamArrangement


def oracle(rows, domain=sympy.QQ):
    """Recompute the profile with sympy: pencils, points, decorations.

    Ranks and null spaces are taken with ``DomainMatrix`` over ``domain``:
    QQ for one arrangement, ``QQ.frac_field(w)`` for a family.  Entries
    are anything ``sympy.sympify`` reads (``Fraction``, or expressions in
    w)."""
    n = len(rows)
    elems = [[domain.from_sympy(sympy.sympify(x)) for x in r] for r in rows]
    mat = lambda ks: DomainMatrix([elems[k] for k in ks], (len(ks), 4), domain)
    rank = cache(lambda ks: mat(ks).rank())  # ks: sorted index tuples
    for i, j in combinations(range(n), 2):
        if rank((i, j)) < 2:
            raise incidence.CoincidentPlanes(i, j)
    pencils = set()
    for i, j in combinations(range(n), 2):
        members = tuple(
            k for k in range(n)
            if k in (i, j) or rank(tuple(sorted((i, j, k)))) == 2)
        pencils.add(members)
    lines = {tuple(m + 1 for m in mem): len(mem) for mem in pencils}

    points = {}
    for trip in combinations(range(n), 3):
        if rank(trip) != 3:
            continue
        (v,) = mat(trip).nullspace().to_list()
        lead = next(x for x in v if x)
        key = tuple(x / lead for x in v)
        members = tuple(
            k + 1 for k in range(n)
            if not sum((elems[k][t] * v[t] for t in range(4)), domain.zero))
        points[key] = members
    big = [set(m + 1 for m in mem) for mem in pencils if len(mem) >= 3]
    decorated = {}
    for mem in points.values():
        j = sum(1 for s in big if s <= set(mem))
        decorated[mem] = (len(mem), j)
    return lines, decorated


def random_constant_arrangement(rng, n):
    while True:
        rows = []
        for _ in range(n):
            while True:
                r = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
                if any(r):
                    break
            rows.append(r)
        try:
            return rows, Arrangement([LinearForm(r) for r in rows])
        except ValueError:
            continue


def random_gl4(rng):
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        if sympy.Matrix(m).det() != 0:
            return m


def transform(a, m):
    """Substitute x_i -> sum_k m[i][k] x_k in every form."""
    cls = ParamArrangement if isinstance(a, ParamArrangement) else Arrangement
    out = []
    for f in a.forms:
        coeffs = []
        for k in range(4):
            acc = Poly() if isinstance(a, ParamArrangement) else Fraction(0)
            for i in range(4):
                acc = acc + f.coeffs[i] * m[i][k]
            coeffs.append(acc)
        out.append(LinearForm(coeffs))
    return cls(out)


def relations(cm) -> list:
    """A basis of the relations among the rows of the cycle model ``cm``
    (the left kernel of its matrix, by ``rref`` of the transpose), each as
    {row label: nonzero coefficient}."""
    _, kernel, _ = rref(cm.matrix.transpose())
    return [{label: c for label, c in zip(cm.row_labels, vec) if c}
            for vec in kernel]


def combination_vanishes(cm, chain) -> bool:
    """Whether the rows of ``cm`` combined with the coefficients of the
    {row label: coefficient} ``chain`` sum to zero."""
    coeffs = [Fraction(chain.get(label, 0)) for label in cm.row_labels]
    return not any(cm.matrix.transpose().matvec(coeffs))


def zw_mul(a: tuple, b: tuple) -> tuple:
    """The product of two Z[w] polynomials (ascending integer coefficient
    tuples without trailing zeros, () for 0), by schoolbook convolution."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)

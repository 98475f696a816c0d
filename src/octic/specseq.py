"""Weight spectral sequence of a normal crossing degeneration.

The first page is assembled purely combinatorially from the strata complex:

    E1(-k, h+k) = (+)_{j >= max(-k,0)}  H^{h-2j-k}( S^[2j+k+1] )

where S^[m] is the disjoint union of the depth-m strata and h the degree the
entry converges to.  Every page is indexed by (p, q) = (-k, h+k) alone; k
and h appear only in the formula above and in the printed cells.

The differential d1 decomposes into restriction maps (one level deeper,
same degree) and Gysin maps (one level up, degree +2).  Two kinds of block
are known:

* degree-zero restrictions are the signed coboundary of the nerve, and the
  top-degree Gysin blocks are their transposes;
* degree-two Gysin blocks can be presented by an explicit cycle model
  (labeled curve classes and their pushforward matrix).

``build_d1`` returns d1 as a dict from (p, q) to the arrow leaving that
position.  An arrow whose blocks are all known is assembled into one matrix
and its rank is computed.  Every other arrow is either forced to rank zero
by the dimensions, carried by a justified rank annotation that its known
blocks bound from below, or inherited from the dual arrow -- Poincare
duality of the pages pairs the arrow at (p, q) with the one at (-p-1, 6-q)
rank for rank.

Blocks and arrows are tuples of rows (0 and +-1 in the coboundaries,
rationals in a cycle model); their ranks come from ``exact.rank``.

The second page is then exact linear algebra over the resolved ranks.  It
degenerates there, so its antidiagonals are the Betti numbers of a nearby
smooth fiber, and the off-center entries of the middle antidiagonal decide
whether the limit mixed Hodge structure on H^3 is pure.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul
from typing import Mapping, NamedTuple, Optional, Sequence

from . import Record, exact
from .semistable import StrataComplex, betti


class MissingBlock(ValueError):
    """An arrow of d1 has no matrix, no annotation, and no resolvable dual."""


class InconsistentRanks(ValueError):
    """Rank data contradicts dimensions, block matrices, or d1*d1 = 0."""


class UnknownLabel(KeyError):
    pass


def _top_degree(m: int) -> int:
    # depth-m strata have complex dimension 4 - m
    return 2 * (4 - m)


# ---------------------------------------------------------------------------
# E1 page


class Summand(NamedTuple):
    stratum: str
    degree: int
    twist: int
    dim: int

    def to_json(self):
        return {"stratum": self.stratum, "degree": self.degree,
                "twist": self.twist, "dim": self.dim}


class E1Entry(NamedTuple):
    p: int
    q: int
    summands: tuple = ()

    @property
    def dim(self) -> int:
        return sum(s.dim for s in self.summands)

    def to_json(self):
        # printed in the formula's index: k = -p, h = p + q
        return {"k": -self.p, "h": self.p + self.q, "dim": self.dim,
                "summands": [s.to_json() for s in self.summands]}


class E1Grid(Record):
    __slots__ = _fields = ("complex", "entries")

    def __init__(self, complex: StrataComplex, entries: Optional[dict] = None):
        self.complex = complex
        self.entries = {} if entries is None else entries  # (p, q) -> E1Entry

    @property
    def columns(self) -> list:
        w = self.complex.depth - 1
        return list(range(-w, w + 1))

    def entry_pq(self, p: int, q: int) -> E1Entry:
        return self.entries.get((p, q), E1Entry(p, q))

    def dim_pq(self, p: int, q: int) -> int:
        return self.entry_pq(p, q).dim

    def antidiagonal(self, h: int) -> int:
        """Total E1 dimension converging to H^h."""
        return sum(e.dim for (p, q), e in self.entries.items() if p + q == h)

    def euler(self) -> int:
        return sum((-1) ** h * self.antidiagonal(h)
                   for h in range(0, 2 * self.complex.depth + 7))

    def to_json(self):
        cells = sorted(self.entries.values(), key=lambda e: (-e.p, e.p + e.q))
        return {"columns": self.columns, "cells": [e.to_json() for e in cells]}


def assemble_e1(s: StrataComplex) -> E1Grid:
    """Populate the first page of the weight spectral sequence for s."""
    grid: dict = {}
    depth = s.depth
    for p in range(-(depth - 1), depth):
        k = -p
        for q in range(0, 7):
            h = p + q
            summands = []
            j = max(-k, 0)
            while True:
                m = 2 * j + k + 1
                if m > depth:
                    break
                deg = h - 2 * j - k
                for members, geom in s.level(m):
                    b = betti(geom)
                    if 0 <= deg < len(b) and b[deg]:
                        summands.append(Summand("&".join(members), deg, j, b[deg]))
                j += 1
            grid[(p, q)] = E1Entry(p, q, tuple(summands))
    return E1Grid(s, grid)


# ---------------------------------------------------------------------------
# nerve coboundaries


def nerve_coboundary(s: StrataComplex, m: int) -> tuple:
    """Signed incidence matrix from depth-m strata to depth-(m+1) strata,
    as rows of 0 and +-1.

    Rows follow the deeper level, columns the shallower one; the sign of an
    incidence is the position of the dropped component, so consecutive
    coboundaries compose to zero.
    """
    cols = [members for members, _ in s.level(m)]
    col_index = {tup: i for i, tup in enumerate(cols)}
    entries = []
    for tup, _ in s.level(m + 1):
        row = [0] * len(cols)
        for t in range(len(tup)):
            i = col_index.get(tup[:t] + tup[t + 1:])
            if i is not None:
                row[i] = (-1) ** t
        entries.append(tuple(row))
    return tuple(entries)


# ---------------------------------------------------------------------------
# cycle model


class CycleModel(Record):
    """Labeled degree-2 homology bases and an explicit pushforward matrix.

    ``generators`` lists a basis of curve classes per double stratum.  The
    matrix, rows of rationals, presents the pushforward of the
    ``row_labels`` subset of them in the span of the ``col_labels`` classes
    on the components; a relation among the rows is exactly a cycle that
    dies under d1.
    """

    # no __slots__: ``rank`` is cached in the instance's __dict__
    _fields = ("generators", "row_labels", "col_labels", "matrix")

    def __init__(self, generators: dict, row_labels: tuple, col_labels: tuple,
                 matrix: tuple):
        self.generators = generators
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        self.matrix = matrix
        labels = [l for labs in self.generators.values() for l in labs]
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels repeat across strata")
        known = set(labels)
        for l in self.row_labels:
            if l not in known:
                raise UnknownLabel(l)
        if len(set(self.row_labels)) != len(self.row_labels):
            raise ValueError("matrix row labels repeat")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise ValueError("matrix column labels repeat")
        if len(self.matrix) != len(self.row_labels):
            raise ValueError("matrix height does not match its row labels")
        if any(len(row) != len(self.col_labels) for row in self.matrix):
            raise ValueError("matrix width does not match its column labels")

    @cached_property
    def rank(self) -> int:
        """The matrix's rank, computed on the first request only."""
        return exact.rank(self.matrix)


# ---------------------------------------------------------------------------
# d1


class RankAnnotation(Record):
    __slots__ = _fields = ("p", "q", "rank", "why")

    def __init__(self, p: int, q: int, rank: int, why: str):
        if rank < 0:
            raise ValueError("negative rank annotation")
        if not why:
            raise ValueError("a rank annotation must carry its justification")
        self.p = p
        self.q = q
        self.rank = rank
        self.why = why


class Arrow(NamedTuple):
    """The differential leaving one position of the first page.

    ``matrix`` is the whole arrow as rows, present when its target is
    nonzero and every block of it is known.  ``lower``, computed for an
    annotated arrow only, is the largest rank of its known blocks, which
    bounds the rank of the arrow from below.
    """

    source_dim: int
    target_dim: int
    matrix: Optional[tuple] = None
    lower: int = 0
    annotation: Optional[RankAnnotation] = None


def _groups(entry: E1Entry) -> list:
    """Summands of an entry merged into (depth, degree) groups with dims,
    ordered by twist (the order the formula lists them in)."""
    seen = []
    dims = {}
    for s in entry.summands:
        m = 2 * s.twist - entry.p + 1
        key = (m, s.degree)
        if key not in dims:
            seen.append(key)
            dims[key] = 0
        dims[key] += s.dim
    return [(key, dims[key]) for key in seen]


def _offsets(groups) -> dict:
    """Where each (depth, degree) group starts in the basis of its entry."""
    out, at = {}, 0
    for key, dim in groups:
        out[key] = at
        at += dim
    return out


def build_d1(e1: E1Grid,
             cm: Optional[CycleModel] = None,
             annotations: Sequence[RankAnnotation] = ()) -> dict:
    """Every arrow of d1 on the first page ``e1``, keyed by the (p, q) it
    leaves, each assembled from its blocks.

    Known blocks: degree-zero restrictions are nerve coboundaries,
    top-degree Gysin maps their transposes, and a supplied cycle model
    presents the degree-two Gysin block.  An arrow whose blocks are all
    known full matrices is assembled into one matrix.  Every other arrow
    with nonzero dimensions must be covered by a rank annotation or by
    the dual arrow at (-p-1, 6-q); otherwise the arrow is reported
    missing.
    """
    s = e1.complex
    anns = {}
    for a in annotations:
        if (a.p, a.q) in anns:
            raise ValueError(f"two annotations for the arrow at ({a.p}, {a.q})")
        anns[(a.p, a.q)] = a

    deltas = {m: nerve_coboundary(s, m) for m in range(1, s.depth)}
    # model rows are source classes, block rows targets
    cm_block = tuple(zip(*cm.matrix)) if cm is not None else None

    arrows = {}
    for p in e1.columns:
        for q in range(0, 7):
            src = e1.entry_pq(p, q)
            tgt = e1.entry_pq(p + 1, q)
            if src.dim == 0:
                continue
            src_groups, tgt_groups = _groups(src), _groups(tgt)
            tgt_dims = dict(tgt_groups)
            known, placed, complete = [], [], True
            for (m, deg), dim in src_groups:
                blocks = []            # (target group, rows or None, full)
                restriction, gysin = (m + 1, deg), (m - 1, deg + 2)
                if tgt_dims.get(restriction):
                    blocks.append((restriction,
                                   deltas.get(m) if deg == 0 else None, True))
                if tgt_dims.get(gysin):
                    if deg == _top_degree(m) and (m - 1) in deltas:
                        blocks.append((gysin, tuple(zip(*deltas[m - 1])), True))
                    elif m == 2 and deg == 2 and cm is not None:
                        full = (len(cm.matrix) == dim and
                                len(cm.col_labels) == tgt_dims[gysin])
                        blocks.append((gysin, cm_block, full))
                    else:
                        blocks.append((gysin, None, True))
                for target, block, full in blocks:
                    if block is not None:
                        known.append(block)
                    if block is None or not full:
                        complete = False
                    else:
                        placed.append(((m, deg), target, block))
            matrix = None
            if complete and tgt.dim:
                col_off, row_off = _offsets(src_groups), _offsets(tgt_groups)
                grid = [[0] * src.dim for _ in range(tgt.dim)]
                for source, target, block in placed:
                    r0, c0 = row_off[target], col_off[source]
                    for r, row in enumerate(block):
                        grid[r0 + r][c0:c0 + len(row)] = row
                matrix = tuple(map(tuple, grid))
            annotation = anns.pop((p, q), None)
            # the model's block has the model's rank, known once
            lower = max((cm.rank if b is cm_block else exact.rank(b)
                         for b in known), default=0) if annotation else 0
            arrows[(p, q)] = Arrow(src.dim, tgt.dim, matrix, lower, annotation)

    for (p, q), a in anns.items():
        raise ValueError(f"annotation at ({p}, {q}) matches no arrow")

    # resolvability: every arrow must vanish, be assembled or annotated, or
    # have a dual arrow that does; an arrow with no dual has a vanishing dual
    def resolved(arrow):
        return (arrow.target_dim == 0 or arrow.matrix is not None
                or arrow.annotation is not None)

    unresolved = [(p, q) for (p, q), arrow in arrows.items()
                  if not resolved(arrow)
                  and (-p - 1, 6 - q) in arrows
                  and not resolved(arrows[(-p - 1, 6 - q)])]
    if unresolved:
        raise MissingBlock(
            "no matrix, annotation, or resolvable dual for the arrows at "
            + ", ".join(f"({p}, {q})" for p, q in sorted(unresolved)))
    return arrows


# ---------------------------------------------------------------------------
# E2 and the limit report


def _resolve_ranks(e1: E1Grid, d1: Mapping):
    """Exact rank of every arrow plus the provenance of each value."""
    ranks = {}
    assembled = {}

    # first pass: trivial, matrix-presented and annotated arrows
    for (p, q), arrow in d1.items():
        if arrow.source_dim != e1.dim_pq(p, q):
            raise InconsistentRanks(
                f"arrow at ({p}, {q}) was built for a different page")
        if arrow.target_dim == 0:
            ranks[(p, q)] = (0, "zero", "")
            continue
        if arrow.matrix is not None:
            assembled[(p, q)] = arrow.matrix
            ranks[(p, q)] = (exact.rank(arrow.matrix), "matrix", "")
        a = arrow.annotation
        if a is not None:
            top = min(arrow.source_dim, arrow.target_dim)
            if not (arrow.lower <= a.rank <= top):
                raise InconsistentRanks(
                    f"annotated rank {a.rank} at ({p}, {q}) is outside "
                    f"[{arrow.lower}, {top}]")
            if (p, q) in ranks and ranks[(p, q)][0] != a.rank:
                raise InconsistentRanks(
                    f"annotated rank {a.rank} at ({p}, {q}) disagrees with "
                    f"the computed rank {ranks[(p, q)][0]}")
            ranks[(p, q)] = (a.rank, "annotation", a.why)

    # second pass: duality fills what is left; build_d1 has made sure the
    # dual of every such arrow was resolved above or does not exist
    for p, q in d1:
        if (p, q) in ranks:
            continue
        dual = ranks.get((-p - 1, 6 - q))
        if dual is not None:
            ranks[(p, q)] = (dual[0], "duality", f"dual of ({-p - 1}, {6 - q})")
        else:
            ranks[(p, q)] = (0, "duality", "dual arrow vanishes")

    # duality must agree wherever both arrows were resolved independently
    for (p, q), (r, via, _) in ranks.items():
        if via == "duality":
            continue
        partner = ranks.get((-p - 1, 6 - q))
        if partner and partner[1] not in ("duality",) and partner[0] != r:
            raise InconsistentRanks(
                f"ranks at ({p}, {q}) and ({-p - 1}, {6 - q}) break duality: "
                f"{r} vs {partner[0]}")

    # d1 * d1 = 0, on matrices where both are assembled, on ranks always
    for (p, q), m2 in assembled.items():
        m1 = assembled.get((p - 1, q))
        if m1 is not None:
            cols = list(zip(*m1))
            if any(sum(map(mul, row, col)) for row in m2 for col in cols):
                raise InconsistentRanks(
                    f"d1 after d1 at ({p - 1}, {q}) is not zero")
    for (p, q), (r, _, _) in ranks.items():
        incoming = ranks.get((p - 1, q), (0,))[0]
        if incoming + r > e1.dim_pq(p, q):
            raise InconsistentRanks(
                f"image ({incoming}) plus rank ({r}) exceed the {e1.dim_pq(p, q)}"
                f"-dimensional entry at ({p}, {q})")
    return ranks


class LimitReport(NamedTuple):
    e1: E1Grid
    e2: dict                  # (p, q) -> dimension
    betti: tuple
    h3_weights: tuple
    pure: bool
    ranks: dict               # (p, q) -> (rank, via, why)
    warnings: tuple = ()

    def e2_pq(self, p: int, q: int) -> int:
        return self.e2.get((p, q), 0)

    def to_json(self):
        cols = self.e1.columns
        rows = [{"q": q, "dims": [self.e2_pq(p, q) for p in cols]}
                for q in range(6, -1, -1)]
        return {
            "e1": self.e1.to_json(),
            "e2": {"columns": cols, "rows": rows},
            "betti": list(self.betti),
            "h3_weights": list(self.h3_weights),
            "pure": self.pure,
            "ranks": [{"p": p, "q": q, "rank": r, "via": via,
                       **({"why": why} if why else {})}
                      for (p, q), (r, via, why) in sorted(self.ranks.items())],
            "euler_e1": self.e1.euler(),
            "euler_betti": sum((-1) ** h * b for h, b in enumerate(self.betti)),
            "warnings": list(self.warnings),
        }


def compute_e2(e1: E1Grid, d1: Mapping) -> LimitReport:
    """Exact second page, limit Betti numbers and the purity verdict, from
    the arrows of d1 that ``build_d1`` keys by (p, q)."""
    ranks = _resolve_ranks(e1, d1)

    def rank_at(p, q):
        return ranks.get((p, q), (0,))[0]

    e2 = {}
    for p in e1.columns:
        for q in range(0, 7):
            dim = e1.dim_pq(p, q)
            val = dim - rank_at(p, q) - rank_at(p - 1, q)
            if val < 0:
                raise InconsistentRanks(
                    f"negative entry at ({p}, {q}) on the second page")
            e2[(p, q)] = val

    betti = tuple(sum(e2.get((p, h - p), 0) for p in e1.columns)
                  for h in range(0, 7))
    # weights on H^3 in increasing order: q = 2, 3, 4
    h3_weights = (e2.get((1, 2), 0), e2.get((0, 3), 0), e2.get((-1, 4), 0))
    pure = all(e2.get((p, 3 - p), 0) == 0 for p in e1.columns if p != 0)

    warnings = []
    for p in e1.columns:
        if abs(p) > 1 and e2.get((p, 3 - p), 0):
            warnings.append(f"H^3 carries weight {3 - p} beyond the middle "
                            "three")
    for (p, q), val in sorted(e2.items()):
        mirror = e2.get((-p, q + 2 * p))
        if mirror is not None and mirror != val:
            warnings.append(
                f"second page is not weight-symmetric at ({p}, {q}): "
                f"{val} vs {mirror}")
    if e1.euler() != sum((-1) ** h * b for h, b in enumerate(betti)):
        warnings.append("Euler characteristic changed between pages")

    return LimitReport(e1, e2, betti, h3_weights, pure, ranks, tuple(warnings))


# ---------------------------------------------------------------------------
# text rendering


def _cell_e1(entry: E1Entry) -> str:
    if entry.dim == 0:
        return "0"
    # few summands are spelled out, a crowd is summed up
    if len(entry.summands) > 3:
        return _dim_str(entry.dim)
    return "⊕".join(_dim_str(s.dim) for s in entry.summands)


def _dim_str(n: int) -> str:
    return "0" if n == 0 else ("C" if n == 1 else f"C^{n}")


def _render(cols: Sequence[int], cell) -> str:
    table = [[cell(p, q) for p in cols] for q in range(6, -1, -1)]
    widths = [max(len(row[i]) for row in table) for i in range(len(cols))]
    lines = []
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_e1(grid: E1Grid) -> str:
    """The first page as a text grid, rows running q = 6 down to 0."""
    return _render(grid.columns, lambda p, q: _cell_e1(grid.entry_pq(p, q)))


def render_e2(report: LimitReport) -> str:
    return _render(report.e1.columns,
                   lambda p, q: _dim_str(report.e2_pq(p, q)))

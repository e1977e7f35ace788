"""Constructive 4-colorings with degree 6 (mod 12): the non-ergodicity witnesses.

The symmetric witness on T(M,M), M = 3L, is built by coloring
counter-diagonals Dj in a prescribed order, by the same three rules in
every case.  The seed makes D1 1 up to some x and 2 beyond, makes D2 3 on
an x-range and 4 elsewhere, and fills D2's mirror DM.  The mirrored sweep
fills Dd together with its mirror D(M+2-d) for d = 3, 4, ..., from 1/2 on
odd d and 3/4 on even d (D1 is its own mirror).  A fill gives each vertex
the one color of the diagonal's pair that keeps the coloring proper; the
exception rule first forces a few listed vertices of a middle diagonal
from the other pair.  The range rule colors the other middle diagonals:
it forces two listed vertex groups to opposite colors of a pair, then
gives every other vertex the inside group's color on an x-range and the
outside group's color elsewhere.  A few vertices follow copy, count or
row-below rules.  A forced vertex admitting zero or two colors means the
construction guarantee is violated, which is a bug, not an input
condition.

The builder verifies every assignment against its colored neighbours
and asserts the running partial degree after each step against the
per-case ledger (e.g. 4, 4+12(k-1), 2+12(k-1), 6+12(k-1) for L = 4k-1).

Asymmetric witnesses on T(3L,3M) are obtained by gluing degree-zero
strips T(3L,3) on top of the symmetric witness, or for L = 2 by tiling
the T(6,6) witness an odd number of times.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import (Coloring, coloring_from_rows, expand_row_pattern,
                       is_proper, nonsingular_coloring)
from .degree import partial_degree
from .lattice import build


class ConstructionError(AssertionError):
    """A 'unique choice' step found 0 or >= 2 admissible colors."""


@dataclass
class TraceEntry:
    label: str
    diagonals: list
    partial_degree: int


class _DiagonalBuilder:
    def __init__(self, M: int):
        self.tri = build(M, M, 0)
        self.colors = bytearray(self.tri.n)
        self.trace: list[TraceEntry] = []
        self._pending: list[int] = []

    def admissible(self, v: int, pool) -> list[int]:
        cols = self.colors
        nbrs = self.tri.neighbors[v]
        return [c for c in pool
                if all(cols[w] != c for w in nbrs if cols[w])]

    def put(self, x: int, y: int, color: int, source: str = "") -> None:
        v = self.tri.vertex(x, y)
        if self.colors[v]:
            raise ConstructionError(f"vertex ({x},{y}) colored twice")
        if color not in self.admissible(v, (color,)):
            raise ConstructionError(
                f"{source or 'assignment'} at ({x},{y}) breaks properness")
        self.colors[v] = color

    def choice(self, x: int, y: int, pool) -> int:
        """The one color of pool admissible at (x, y)."""
        cand = self.admissible(self.tri.vertex(x, y), pool)
        if len(cand) != 1:
            raise ConstructionError(
                f"unique choice failed at ({x},{y}): {len(cand)} colors "
                f"admissible from {tuple(pool)}")
        return cand[0]

    def forced(self, x: int, y: int, pool) -> int:
        c = self.choice(x, y, pool)
        self.put(x, y, c, source="unique choice")
        return c

    def paint(self, j: int, rule, source: str, skip=()) -> None:
        """Color every uncolored vertex of Dj outside skip with rule(x, y),
        and list Dj in the current trace step."""
        skip_v = {self.tri.vertex(x, y) for x, y in skip}
        for v in self.tri.counter_diagonal(j):
            if self.colors[v] or v in skip_v:
                continue
            x, y = self.tri.coords(v)
            self.put(x, y, rule(x, y), source=source)
        self._pending.append(j)

    def fill(self, j: int, pool, skip=(), first=()) -> None:
        """Color every uncolored vertex on Dj with its unique choice from
        pool, after forcing the vertices `first` from the other pair."""
        other = (3, 4) if pool == (1, 2) else (1, 2)
        for x, y in first:
            self.forced(x, y, other)
        self.paint(j, lambda x, y: self.choice(x, y, pool),
                   f"D{j} unique choice", skip)

    def seed(self, a: int, lo: int, hi: int) -> None:
        """D1 is 1 for x <= a and 2 beyond, D2 is 3 for lo <= x <= hi and
        4 elsewhere; then D2's mirror DM is filled from 3/4."""
        self.paint(1, lambda x, y: 1 if x <= a else 2, "seed D1")
        self.paint(2, lambda x, y: 3 if lo <= x <= hi else 4, "seed D2")
        self.fill(self.tri.r, (3, 4))

    def sweep(self, lo: int, hi: int) -> None:
        """For d = lo..hi, fill Dd and its mirror D(M+2-d), from 1/2 when
        d is odd and from 3/4 when d is even."""
        for d in range(lo, hi + 1):
            pool = (1, 2) if d % 2 else (3, 4)
            self.fill(d, pool)
            self.fill(self.tri.r + 2 - d, pool)

    def count(self, j: int, color: int) -> int:
        return sum(1 for v in self.tri.counter_diagonal(j)
                   if self.colors[v] == color)

    def checkpoint(self, label: str, expect=None) -> int:
        deg = partial_degree(self.tri, self.colors)
        if expect is not None and deg != expect:
            raise ConstructionError(
                f"partial degree after {label} is {deg}, ledger says {expect}")
        self.trace.append(TraceEntry(label, self._pending, deg))
        self._pending = []
        return deg

    def finish(self) -> Coloring:
        if 0 in self.colors:
            raise ConstructionError("construction left uncolored vertices")
        c = Coloring(self.tri, 4, bytes(self.colors))
        if not is_proper(self.tri, c):
            raise ConstructionError("constructed coloring is not proper")
        return c

    def ranged(self, j: int, pool, outside, inside, lo: int, hi: int,
               skip=()) -> None:
        """Force every vertex of the groups `outside` and `inside` from
        pool, each group to one color and the two to opposite colors; then
        give every other uncolored vertex of Dj not in skip inside's color
        for lo <= x <= hi and outside's color elsewhere."""
        cols = [{self.forced(x, y, pool) for x, y in group}
                for group in (outside, inside)]
        if any(len(c) != 1 for c in cols) or cols[0] == cols[1]:
            raise ConstructionError(f"forced groups on D{j} do not take "
                                    f"opposite colors of {tuple(pool)}")
        (c_out,), (c_in,) = cols
        self.paint(j, lambda x, y: c_in if lo <= x <= hi else c_out,
                   f"D{j} range rule", skip)


def _case_l_eq_2():
    tri = build(6, 6, 0)
    c = nonsingular_coloring(tri)
    return c, [TraceEntry("nonsingular", list(range(1, 7)),
                          partial_degree(tri, c.colors))]


def _case_4k_minus_1(k: int):
    b = _DiagonalBuilder(12 * k - 3)
    b.seed(6 * k - 1, 3 * k + 1, 9 * k - 1)
    b.sweep(3, 3)
    b.checkpoint("step1", expect=4)
    b.sweep(4, 6 * k - 3)
    b.checkpoint("step2", expect=4 + 12 * (k - 1))

    b.fill(6 * k - 2, (1, 2),
           first=((3 * k - 1, 3 * k - 1), (9 * k - 2, 9 * k - 3)))
    b.fill(6 * k + 1, (3, 4))
    b.checkpoint("step3", expect=4 + 12 * (k - 1))

    b.fill(6 * k - 1, (3, 4))
    b.checkpoint("step4a", expect=2 + 12 * (k - 1))
    b.fill(6 * k, (1, 2))
    b.checkpoint("step4", expect=6 + 12 * (k - 1))
    return b.finish(), b.trace


def _case_4k(k: int):
    b = _DiagonalBuilder(12 * k)
    b.seed(6 * k, 3 * k + 2, 9 * k + 1)
    b.sweep(3, 4)
    b.checkpoint("step1", expect=4)
    b.sweep(5, 6 * k - 2)
    b.checkpoint("step2", expect=4 + 12 * (k - 1))

    b.fill(6 * k - 1, (3, 4), first=((6 * k, 12 * k - 1), (12 * k, 6 * k - 1)))
    b.fill(6 * k + 3, (1, 2))
    b.checkpoint("step3", expect=8 + 12 * (k - 1))

    b.ranged(6 * k, (1, 2), ((6 * k + 1, 12 * k - 1), (6 * k, 12 * k)),
             ((1, 6 * k - 1), (12 * k, 6 * k)), 1, 6 * k - 1)
    # D(6k+1): unique 3/4 everywhere except two free vertices, fixed explicitly
    b.put(1, 6 * k, 4, source="free vertex")
    b.put(6 * k + 1, 12 * k, 3, source="free vertex")
    b.fill(6 * k + 1, (3, 4))
    b.checkpoint("step4", expect=6 + 12 * (k - 1))

    free = ((2, 6 * k), (6 * k + 2, 12 * k)) if k % 2 else \
        ((1, 6 * k + 1), (6 * k + 1, 1))
    b.fill(6 * k + 2, (3, 4), first=free)
    b.checkpoint("step5", expect=6 + 12 * (k - 1))
    return b.finish(), b.trace


def _case_4k_plus_1(k: int):
    b = _DiagonalBuilder(12 * k + 3)
    b.seed(6 * k + 2, 3 * k + 3, 9 * k + 3)
    b.sweep(3, 5)
    b.checkpoint("step1", expect=8)
    b.sweep(6, 6 * k - 1)
    b.checkpoint("step2", expect=8 + 12 * (k - 1))

    b.fill(6 * k, (1, 2), first=((3 * k, 3 * k), (9 * k + 2, 9 * k + 1)))
    # second exception listed at (3k+3,3k) in prose; the reference figure
    # places it at (3k+3,3k+2), which is the one on this diagonal
    b.fill(6 * k + 5, (1, 2),
           first=((3 * k + 3, 3 * k + 2), (9 * k + 4, 9 * k + 4)))
    b.checkpoint("step3a", expect=8 + 12 * (k - 1))

    # the forced inside pair takes the paper's parity color: 3 for odd k,
    # 4 for even k
    b.ranged(6 * k + 1, (3, 4),
             ((9 * k + 3, 9 * k + 1), (9 * k + 2, 9 * k + 2)),
             ((3 * k + 1, 3 * k), (3 * k, 3 * k + 1)),
             3 * k + 2, 9 * k + 1)
    target = b.count(6 * k + 1, 3)
    # the last free vertex balances the 3-counts of the two ranged diagonals
    balance = (3 * k + 1, 3 * k + 3)
    b.ranged(6 * k + 4, (3, 4),
             ((9 * k + 4, 9 * k + 3), (9 * k + 3, 9 * k + 4)),
             ((3 * k + 3, 3 * k + 1), (3 * k + 2, 3 * k + 2)),
             3 * k + 4, 9 * k + 2, skip=(balance,))
    have = b.count(6 * k + 4, 3)
    b.put(*balance, 3 if have < target else 4, source="count-matching vertex")
    if b.count(6 * k + 4, 3) != target:
        raise ConstructionError("3-counts of the ranged diagonals differ")
    b.checkpoint("step3", expect=4 + 12 * (k - 1))

    b.forced(3 * k, 3 * k + 2, (1, 2))
    cf = b.forced(9 * k + 2, 9 * k + 3, (1, 2))
    b.put(3 * k + 1, 3 * k + 1, cf, source="copy-colored vertex")
    b.put(9 * k + 3, 9 * k + 2, cf, source="copy-colored vertex")
    b.fill(6 * k + 2, (1, 2))

    six = ((3 * k + 2, 3 * k + 1), (3 * k + 1, 3 * k + 2), (3 * k, 3 * k + 3),
           (9 * k + 4, 9 * k + 2), (9 * k + 3, 9 * k + 3), (9 * k + 2, 9 * k + 4))
    b.fill(6 * k + 3, (3, 4), skip=six)
    for x, y in six:
        b.forced(x, y, (1, 2, 3, 4))
    b.checkpoint("step4", expect=6 + 12 * (k - 1))
    return b.finish(), b.trace


def _case_4k_minus_2(k: int):
    if k < 2:
        raise ValueError("the counter-diagonal algorithm needs k >= 2")
    M = 12 * k - 6
    b = _DiagonalBuilder(M)
    b.seed(6 * k - 3, 3 * k, 9 * k - 4)
    b.sweep(3, 5)
    b.checkpoint("step1", expect=8)
    b.sweep(6, 6 * k - 7)
    b.checkpoint("step2", expect=8 + 12 * (k - 2))

    b.fill(6 * k - 6, (1, 2),
           first=((3 * k - 3, 3 * k - 3), (9 * k - 6, 9 * k - 6)))
    b.fill(6 * k + 2, (1, 2),
           first=((3 * k + 1, 3 * k + 1), (9 * k - 2, 9 * k - 2)))
    # prose puts the range end at 9k-4; the reference figure ends it at 9k-5
    b.ranged(6 * k - 5, (3, 4),
             ((3 * k - 2, 3 * k - 3), (3 * k - 3, 3 * k - 2)),
             ((9 * k - 5, 9 * k - 6), (9 * k - 6, 9 * k - 5)),
             3 * k - 1, 9 * k - 5)
    b.ranged(6 * k + 1, (3, 4),
             ((3 * k + 1, 3 * k), (3 * k, 3 * k + 1)),
             ((9 * k - 2, 9 * k - 3), (9 * k - 3, 9 * k - 2)),
             3 * k + 2, 9 * k - 4)
    b.checkpoint("step3", expect=4 + 12 * (k - 2))

    # D(6k-4): the color is read off the vertex directly below
    def below_rule(x, y):
        below = b.colors[b.tri.vertex(x, 1 + (y - 2) % M)]
        if below not in (3, 4):
            raise ConstructionError(
                f"vertex below ({x},{y}) should be colored 3 or 4")
        return 1 if below == 4 else 2

    b.paint(6 * k - 4, below_rule, "row-below rule")

    # D(6k): the in-range partner of (9k-2,9k-4) is misprinted in the
    # prose; it is recovered as the transposed vertex (9k-4,9k-2)
    b.ranged(6 * k, (1, 2), ((9 * k - 2, 9 * k - 4),),
             ((9 * k - 4, 9 * k - 2),), 3 * k, 9 * k - 4)

    b.fill(6 * k - 3, (1, 2),
           first=((3 * k - 1, 3 * k - 2), (9 * k - 4, 9 * k - 5)))
    b.ranged(6 * k - 2, (3, 4),
             ((3 * k, 3 * k - 2), (3 * k - 1, 3 * k - 1)),
             ((9 * k - 3, 9 * k - 5), (9 * k - 4, 9 * k - 4)),
             3 * k + 1, 9 * k - 2)

    seven = ((3 * k + 1, 3 * k - 2), (3 * k, 3 * k - 1), (3 * k - 1, 3 * k),
             (9 * k - 1, 9 * k - 6), (9 * k - 2, 9 * k - 5),
             (9 * k - 3, 9 * k - 4), (9 * k - 4, 9 * k - 3))
    b.fill(6 * k - 1, (3, 4), skip=seven)
    for x, y in seven:
        b.forced(x, y, (1, 2, 3, 4))
    b.checkpoint("step4", expect=6 + 12 * (k - 2))
    return b.finish(), b.trace


def _k(L: int) -> int:
    """The k of L = 4k-2, 4k-1, 4k or 4k+1."""
    return (L + 2) // 4


def construct_deg6_symmetric(L: int) -> tuple[Coloring, list[TraceEntry]]:
    """A proper 4-coloring of T(3L,3L) with degree 6 (mod 12), L >= 2."""
    if L < 2:
        raise ValueError("witnesses exist for L >= 2 only")
    if L == 2:
        return _case_l_eq_2()
    case = {2: _case_4k_minus_2, 3: _case_4k_minus_1,
            0: _case_4k, 1: _case_4k_plus_1}[L % 4]
    return case(_k(L))


def extend_periodic(c: Coloring, p: int, q: int) -> Coloring:
    """Tile a coloring of T(r,s) p times horizontally and q times vertically.

    The degree multiplies by p*q.  Undefined across a twist.
    """
    if c.tri.t != 0:
        raise ValueError("periodic extension across a twist is not defined")
    if p < 1 or q < 1:
        raise ValueError("extension factors must be positive")
    r, s = c.tri.r, c.tri.s
    big = build(r * p, s * q, 0)
    out = bytearray(big.n)
    for v in range(big.n):
        x, y = big.coords(v)
        out[v] = c.colors[c.tri.vertex((x - 1) % r + 1, (y - 1) % s + 1)]
    return Coloring(big, c.q, bytes(out))


_STRIP_ROWS = {
    # L mod 4 -> k parity -> (c1, c2, c3) row patterns; {t} is the repeat
    3: {0: ("23[1423]^{t} 14 [2413]^{t} 4",
            "3[1423]^{t} 142 [1324]^{t} 2",
            "[1423]^{t} 1231 [3241]^{t} 3"),
        1: ("23[1423]^{t} 14231 [3241]^{t} 34",
            "3[1423]^{t} 1423124 [1324]^{t} 2",
            "[1423]^{t} 14214241 [3241]^{t} 3")},
    0: {0: ("4[2314]^{t} 312413 [2413]^{t} 2",
            "3[1423]^{t} 124132 [4132]^{t} 4",
            "[1423]^{t} 1431341 [3241]^{t} 3"),
        1: ("4[2314]^{t} 2342312413 [2413]^{t} 2",
            "3[1423]^{t} 1423423132 [4132]^{t} 4",
            "[1423]^{t} 14234231241 [3241]^{t} 3")},
    # odd-k rows below fix two misprints in the published table (c2's
    # leading block and c1's final digit), pinned by properness plus the
    # top-row match; any proper width-3 strip has degree zero regardless
    1: {0: ("2[3142]^{t} 314214213 [2413]^{t} 4",
            "3[1423]^{t} 14214213 [2413]^{t} 42",
            "[1423]^{t} 1421423421 [3241]^{t} 3"),
        1: ("[2314]^{t1} 2312312413 [2413]^{t} 4",
            "[3142]^{t1} 312312413 [2413]^{t} 42",
            "[1423]^{t1} 1231431241 [3241]^{t} 3")},
    2: {0: ("[2314]^{t1} 231241243 [2413]^{t1} 4",
            "3[1423]^{t1} 1241243 [2413]^{t1} 42",
            "[1423]^{t1} 1241243241241 [3241]^{t} 3"),
        1: ("[2314]^{t2} 21321341 3 [2413]^{t1} 4",
            "[3142]^{t2} 13213413 [2413]^{t1} 42",
            "[1423]^{t1} 14213213413213 [2413]^{t1}")},
}


def strip_rows(L: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Row sequences (c1, c2, c3) of the degree-zero strip on T(3L,3)."""
    if L < 3:
        raise ValueError("strips are defined for L >= 3")
    k = _k(L)
    t = (3 * k - 6) // 2 if L % 4 == 2 else (3 * k - 2) // 2
    return tuple(expand_row_pattern(pat.format(t=t, t1=t + 1, t2=t + 2))
                 for pat in _STRIP_ROWS[L % 4][k % 2])


def build_strip(L: int) -> Coloring:
    """Proper degree-zero 4-coloring of T(3L,3) whose top row matches the
    top row of construct_deg6_symmetric(L)."""
    rows = strip_rows(L)
    tri = build(3 * L, 3, 0)
    c = coloring_from_rows(tri, rows)
    if not is_proper(tri, c):
        raise ConstructionError(f"strip for L={L} is not proper: bug")
    return c


def glue_strip(c: Coloring, strip: Coloring) -> Coloring:
    """Stack a width-3 torus coloring on top of c along their shared top row.

    Properness carries over and the signed degree is preserved exactly,
    because every strip has degree zero.
    """
    if strip.tri.s != 3 or strip.tri.t != 0:
        raise ValueError("second argument must color some T(L,3,0)")
    if strip.tri.r != c.tri.r:
        raise ValueError("widths differ; cannot glue")
    top = c.rows()[-1]
    if strip.rows()[-1] != top:
        raise ValueError("top rows differ; cannot glue")
    tri = build(c.tri.r, c.tri.s + 3, c.tri.t)
    return Coloring(tri, c.q, c.colors + strip.colors)


def construct_deg6(L: int, M: int) -> Coloring:
    """Witness 4-coloring of T(3L,3M) with degree 6 (mod 12).

    Supported: L >= 3 with M >= L (symmetric witness plus M-L glued
    strips), and L = 2 with M = 2p for odd p (tiled T(6,6) witness).
    Width-3 tori (L = 1) admit only degree-zero colorings.
    """
    if L == 2:
        if M % 2 or (M // 2) % 2 == 0:
            raise ValueError(
                f"T(6,{3 * M}) witness exists only for M = 2p with p odd")
        base, _ = construct_deg6_symmetric(2)
        return extend_periodic(base, 1, M // 2)
    if L < 3 or M < L:
        raise ValueError(f"unsupported parameters (L={L}, M={M}): "
                         "need L >= 3 and M >= L, or L = 2 with M/2 odd")
    c, _ = construct_deg6_symmetric(L)
    if M > L:
        strip = build_strip(L)
        for _ in range(M - L):
            c = glue_strip(c, strip)
    return c

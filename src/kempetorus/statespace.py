"""Exhaustive enumeration of canonical proper colorings and their Kempe classes.

Enumeration is depth-first backtracking over vertices in row-major order
with forward properness checks against already-colored neighbours.  One
orbit representative per global color permutation is generated by pinning
the up triangle at (1,1), the first face, to colors 1,2,3 (every orbit of
a proper coloring contains exactly one member with that face so colored);
colors beyond 3 must first appear in ascending order, which is vacuous for
q=4.
The signed degree is maintained incrementally as faces complete, so the
|degree| histogram costs O(1) per leaf.  `_dfs` is the only backtracker:
with several threads each of the `threads` pool tasks runs it once to cut
the tree at depth min(2r, n // 2), then once more below its own
interleaved share of the cut, so no result depends on the thread count
nor on the pool's size, which never exceeds the CPU count.

Class decomposition is one BFS loop, `_bfs_class_stats`, over the Kempe
graph on canonical states, with one engine for every q.  A state is
keyed by its color masks (bit v is vertex v) in first-appearance order,
so a Kempe change is two mask xors and a re-sort; its components come
from `kempe.components`, the library's one Kempe component search.
Every state is held in memory, once: the enumerated map from key to
|degree| is also the visited table.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import sys
from dataclasses import dataclass, field

from .coloring import BudgetExceeded, Coloring
from .degree import sign_table
from .kempe import color_digits, components
from .lattice import Triangulation, build


@dataclass
class EnumerationResult:
    total: int
    histogram: dict | None          # |degree| -> count, q = 4 only
    nodes: int                      # DFS assignments explored
    state_degrees: dict | None = None  # key -> |degree|, if collected


def _pins(tri: Triangulation) -> dict[int, int]:
    """Vertex -> pinned color on the first face, the up triangle at (1,1).

    Its corners are (1,1), (2,1) and (2,2); on a one-row torus (2,2)
    wraps onto the single row, so it is not vertex r + 1.
    """
    v, ne, e = tri.faces[0]
    return {v: 1, e: 2, ne: 3}


def _dfs(tri, q, prefixes, budget, sink, stop=None):
    """Backtracking below each proper pinned prefix (bytes) in turn.

    Calls sink(colors, deg) at depth `stop` (default n) and returns the
    number of assignments performed below the prefixes (nodes).
    """
    n = tri.n
    stop = n if stop is None else stop
    back = [tuple(w for w in tri.neighbors[v] if w < v) for v in range(n)]
    faces_at = [[] for _ in range(n)]
    for f in tri.faces:
        faces_at[max(f)].append(f)
    pinned = _pins(tri)
    # colors reach min(q, n), and the pinned face always holds 1, 2 and 3
    base = max(3, min(q, n)) + 1
    sign = sign_table(base)
    nodes = 0
    limit = budget if budget is not None else float("inf")
    colors = bytearray(n)

    def rec(v, deg, used_max):
        nonlocal nodes
        if v == stop:
            sink(colors, deg)
            return
        pin = pinned.get(v)
        if pin is not None:
            lo = hi = pin
        else:
            lo, hi = 1, min(q, used_max + 1)
        bk = back[v]
        fs = faces_at[v]
        for col in range(lo, hi + 1):
            ok = True
            for w in bk:
                if colors[w] == col:
                    ok = False
                    break
            if not ok:
                continue
            nodes += 1
            if nodes > limit:
                raise BudgetExceeded("nodes", budget)
            colors[v] = col
            d = deg
            for a, b, c in fs:
                d += sign[(colors[a] * base + colors[b]) * base + colors[c]]
            rec(v + 1, d, used_max if col <= used_max else col)
        colors[v] = 0

    try:
        for prefix in prefixes:
            start = len(prefix)
            colors[:start] = prefix
            deg = 0
            for v in range(start):
                for a, b, c in faces_at[v]:
                    deg += sign[(colors[a] * base + colors[b]) * base
                                + colors[c]]
            # the pinned 3 counts as used even if the cut precedes its vertex
            rec(start, deg, max((3, *prefix)))
    finally:
        # rec reaches itself through its closure; left standing, that cycle
        # keeps the sink, and every state the sink stored, alive until the
        # cyclic collector happens to run
        del rec
    return nodes


def _least(m: int) -> int:
    return m & -m


def canonical_packed(masks: list[int], n: int) -> int:
    """Key of a coloring up to color permutation, from its q color masks.

    Nonempty masks in first-appearance order (by least vertex), then empty
    ones; the first q - 1 are concatenated, mask k in bits [k n, (k+1) n).
    """
    ms = sorted(filter(None, masks), key=_least, reverse=True)
    if len(ms) == len(masks):
        ms[0] = 0  # the last of q nonempty masks is left out
    key = 0
    for m in ms:
        key = key << n | m
    return key


class PackedKempe:
    """Mask-based Kempe-move engine for q colors on a fixed triangulation.

    A state is a key over color masks, bit v being vertex v; the last
    color's mask is the complement (see `canonical_packed`).
    """

    def __init__(self, tri: Triangulation, q: int):
        self.tri = tri
        self.q = q
        n = self.n = tri.n
        self.full = (1 << n) - 1
        # no state uses more than n colors, so n + 1 of them keep one free
        # to swap into, and more would only add empty masks and pairs
        m = min(q, n + 1)
        self._shifts = tuple(k * n for k in range(m - 1))
        self._pairs = tuple(itertools.combinations(range(m), 2))
        self._digits = tuple(color_digits(k) for k in range(1, m + 1))

    def label_masks(self, colors) -> list[int]:
        """The masks of colors 1..min(q, n + 1), in label order, of a color
        sequence."""
        rev = bytes(colors)[::-1]  # vertex 0 is the least significant digit
        return [int(rev.translate(d), 2) for d in self._digits]

    def color_masks(self, key: int) -> list[int]:
        """The min(q, n + 1) color masks of a key; the last one is the
        complement."""
        full = self.full
        masks = [key >> k & full for k in self._shifts]
        masks.append(full ^ sum(masks))  # disjoint, so the sum is the union
        return masks

    def unpack(self, key: int) -> Coloring:
        masks = self.color_masks(key)
        return Coloring(self.tri, self.q, bytes(
            next(col for col, m in enumerate(masks, 1) if m >> v & 1)
            for v in range(self.n)))

    def neighbor_keys(self, key: int) -> list[int]:
        """Canonical keys reachable by one Kempe change.

        Swapping a component that covers the whole two-color subgraph is
        a global color permutation, hence canonically trivial; skipped.
        """
        masks = self.color_masks(key)
        n = self.n
        out = []
        for a, b in self._pairs:
            ma, mb = masks[a], masks[b]
            comps = components(self.tri, ma | mb)
            if len(comps) <= 1:
                continue
            for comp in comps:
                masks[a] = ma ^ comp
                masks[b] = mb ^ comp
                out.append(canonical_packed(masks, n))
            masks[a], masks[b] = ma, mb
        return out


def _enum_task(rst, q, budget, collect, stripes, stripe):
    """Enumerate one of `stripes` interleaved parts of the search tree of
    T(r,s,t), `rst` = (r, s, t), built here so a task pickles small.

    With more than one stripe, the tree is cut at depth min(2r, n // 2)
    and this part searches below every stripes-th prefix of the cut, from
    the stripe-th on; only stripe 0 counts the cut's own nodes.
    Returns (total, |degree| histogram, nodes, state degrees).
    """
    tri = build(*rst)
    n = tri.n
    engine = PackedKempe(tri, q) if collect else None
    total = 0
    hist: dict[int, int] = {}
    degs: dict[int, int] = {}

    def sink(colors, deg):
        nonlocal total
        total += 1
        d = abs(deg)
        hist[d] = hist.get(d, 0) + 1
        if collect:
            degs[canonical_packed(engine.label_masks(colors), n)] = d

    if stripes == 1:
        nodes = _dfs(tri, q, [b""], budget, sink)
    else:
        stop = min(2 * tri.r, n // 2)
        cut = []
        cut_nodes = _dfs(tri, q, [b""], budget,
                         lambda colors, deg: cut.append(bytes(colors[:stop])),
                         stop)
        nodes = _dfs(tri, q, cut[stripe::stripes], budget, sink)
        if stripe == 0:
            nodes += cut_nodes
    return total, hist, nodes, degs


def enumerate_colorings(tri: Triangulation, q: int, *, budget_nodes=None,
                        threads: int = 1, collect: bool = False
                        ) -> EnumerationResult:
    """Count canonical proper q-colorings; histogram |degree| for q = 4.

    `collect` maps the canonical key of every state to its |degree|
    (meaningful for q = 4).  One thread searches the whole tree
    in-process; with `threads` > 1 the tree is cut at depth
    min(2r, n // 2) into `threads` interleaved stripes, each searched by
    one task of a process pool of at most `os.cpu_count()` workers.
    Results, node count included, are independent of `threads`, and so
    is whether `budget_nodes` is exceeded.  A torus of more than
    `sys.getrecursionlimit()` - 100 vertices raises ValueError, as the
    DFS recurses once per vertex.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if budget_nodes is not None and budget_nodes < 0:
        raise ValueError("budget_nodes must be at least 0")
    # _dfs recurses once per vertex and leaves 100 frames to its callers
    depth = sys.getrecursionlimit() - 100
    if tri.n > depth:
        raise ValueError(f"{tri.descriptor()} has {tri.n} vertices, more "
                         f"than the {depth} the recursive DFS can reach")
    task = functools.partial(_enum_task, (tri.r, tri.s, tri.t), q,
                             budget_nodes, collect, threads)
    if threads > 1:
        # map re-raises a worker's error only once every part has
        # returned, so the pool is never torn down under a running worker
        with multiprocessing.Pool(min(threads, os.cpu_count() or 1)) as pool:
            parts = pool.map(task, range(threads))
    else:
        parts = map(task, [0])
    total = nodes = 0
    hist: dict[int, int] = {}
    degs = None
    for ptotal, phist, pnodes, pdegs in parts:
        total += ptotal
        nodes += pnodes
        if budget_nodes is not None and nodes > budget_nodes:
            raise BudgetExceeded("nodes", budget_nodes)
        for k, v in phist.items():
            hist[k] = hist.get(k, 0) + v
        # adopt the first part: copying its map would double the
        # peak memory of a one-thread run
        if degs is None:
            degs = pdegs
        else:
            degs.update(pdegs)
    return EnumerationResult(total, hist if q == 4 else None, nodes,
                             degs if collect else None)


@dataclass
class KempeClass:
    size: int
    residue: int | None  # |degree| mod 12 on 3-colorable tori, else None
    representative: Coloring
    degree_abs_counts: dict = field(default_factory=dict)


@dataclass
class ClassDecomposition:
    tri: Triangulation
    q: int
    total: int
    classes: list
    nodes: int  # DFS assignments of the enumeration

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def _bfs_class_stats(engine: PackedKempe, seed: int, degs: dict):
    """BFS one Kempe class; returns (size, |degree| histogram, least key).

    `degs` maps every enumerated state to its |degree|, and is set to
    None for each state the search reaches; callers share it across
    classes.  A Kempe move to a state missing from `degs` is a bug.
    """
    size = 0
    least = seed
    dhist: dict[int, int] = {}
    level = {seed: degs[seed]}
    while level:
        size += len(level)
        least = min(least, min(level))
        for state, d in level.items():
            degs[state] = None
            dhist[d] = dhist.get(d, 0) + 1
        nxt = {}
        try:
            for state in level:
                for k in engine.neighbor_keys(state):
                    d = degs[k]
                    if d is not None:
                        nxt[k] = d
        except KeyError:
            raise AssertionError(
                "Kempe move left the enumerated state universe: bug") from None
        level = nxt
    return size, dhist, least


def kempe_classes(tri: Triangulation, q: int = 4, *, budget_nodes=None,
                  threads: int = 1) -> ClassDecomposition:
    """Partition all canonical proper q-colorings into Kempe classes.

    One mask engine, `PackedKempe`, serves every q, with every state held
    in memory; a class is represented by its member with the least key.
    For q = 4 each class reports its |degree| histogram, and on
    3-colorable tori its |degree| residue mod 12, checked to be single
    (the Kempe invariant) and 0 or 6 (deg = 0 mod 6 holds there).
    Elsewhere the invariant does not hold and the residue is None.
    `budget_nodes` caps the enumeration; each state is one leaf
    assignment, so it also caps the states held.
    """
    engine = PackedKempe(tri, q)
    enum = enumerate_colorings(tri, q, budget_nodes=budget_nodes,
                               threads=threads, collect=True)
    check_residue = q == 4 and tri.is_three_colorable()
    degs = enum.state_degrees
    found = [_bfs_class_stats(engine, seed, degs)
             for seed, d in degs.items() if d is not None]
    classes = []
    # largest first, ties by least key: the order does not depend on the DFS
    for size, dhist, least in sorted(found, key=lambda f: (-f[0], f[2])):
        residue = None
        if check_residue:
            residues = {d % 12 for d in dhist}
            assert len(residues) == 1, (
                f"Kempe class mixes degree residues {residues}: bug")
            residue = residues.pop()
            assert residue in (0, 6), (
                f"|degree| residue {residue} is not 0 or 6 (mod 12): bug")
        classes.append(KempeClass(size, residue, engine.unpack(least),
                                  dhist if q == 4 else {}))
    total = sum(c.size for c in classes)
    assert total == enum.total, \
        "class sizes do not sum to the enumeration total"
    return ClassDecomposition(tri, q, total, classes, enum.nodes)

"""Exhaustive enumeration of canonical proper colorings and their Kempe classes.

Enumeration is depth-first backtracking over vertices in row-major order
with forward properness checks against already-colored neighbours.  One
orbit representative per global color permutation is generated by pinning
the up triangle at (1,1), the first face, to colors 1,2,3 (every orbit of
a proper coloring contains exactly one member with that face so colored);
colors beyond 3 must first appear in ascending order, which is vacuous for
q=4.
At q = 4 the signed degree is maintained incrementally as faces
complete, so the |degree| histogram costs O(1) per leaf; at any other q
every degree is 0.  On a torus of more than three rows, rows 2..s-1 are
searched once per coloring of the row below (and for q > 4 per number
of colors used) and read from a table on later visits, each visit
adding the nodes of the first search, so node counts and budgets are
those of the full vertex-by-vertex tree.  The middle rows are
translates of each other and share one table.  With `collect` every
stored row is replayed down to the leaves; count-only, each of these
rows returns the signed-degree histogram of its whole subtree, found
once per coloring of the row below while the first row stands (a lazy
transfer matrix), so T(6,9)'s 299 million colorings take a second.

`_dfs` is the only backtracker, and each of the `threads` pool tasks
runs it once: a gate at the end of row 0 lets the task go on below only
its own interleaved share of the first rows, so no two tasks search
below the same first row, and no result depends on the thread count
nor on the pool's size, which never exceeds the CPU count.

Class decomposition is one breadth-first search, `_bfs_class_stats`,
over the Kempe graph on canonical states, with one engine for every q:
each class's members form its FIFO queue.  A state is
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
    state_degrees: dict | None = None  # key -> |degree| (0 at q != 4)


def _pins(tri: Triangulation) -> dict[int, int]:
    """Vertex -> pinned color on the first face, the up triangle at (1,1).

    Its corners are (1,1), (2,1) and (2,2); on a one-row torus (2,2)
    wraps onto the single row, so it is not vertex r + 1.
    """
    v, ne, e = tri.faces[0]
    return {v: 1, e: 2, ne: 3}


def _dfs(tri, q, budget, sink=None, stripes=1, stripe=0):
    """Backtracking over the pinned colorings, row by row.

    Returns (nodes, signed): the number of assignments performed and the
    number of colorings at each signed degree, which is the degree at
    q = 4 and 0 at any other q.  Given a sink, it calls sink(colors, deg)
    at each leaf.  Each row start has a continuation, built from the last
    row up, that colors the row and hands each coloring on to the next
    row's; the one at n is the leaf.

    On a torus of more than three rows, rows 2..s-1 are memoised: the
    earlier vertices adjacent to such a row are the row below and, for
    the last row, part of the first row, so what its search yields
    depends only on the colors of the row below, and for q > 4 on the
    colors used so far, while the first row stands.  One rule, `memo`,
    keys its entries by those colors: a miss computes the entry and
    stores it with the nodes that took, and a hit adds the stored nodes
    and checks the budget, so nodes and the budget outcome are those of
    the plain vertex search.  Each memoised row stores its proper
    colorings; the middle rows are translates of each other, so they all
    share one table.  The last row's entries are dropped at each new
    first row, as the search never returns to an earlier one.  Rows 0 and
    1, and every row of a torus of at most three rows, come up once per
    coloring of the rows above, and are searched in place.

    With a sink, a memoised row descends into its stored colorings in
    order, so leaves reach the sink in the order of the plain search.
    Without one (count only), each memoised row also stores, until the
    first row changes, the signed-degree histogram of its whole subtree
    relative to its entry; the first memoised row's histogram, shifted
    by the degree there, is added to the result.  This is the
    transfer-matrix count, done lazily inside the one search.

    The search is cut at the end of row 0 (the leaves on a one-row
    torus), where a gate goes on below every stripes-th first row from
    the stripe-th on; as every first row arrives there once, the gate
    also drops the entries that hold for one first row only.  Stripe 0
    returns every node and any other stripe only its nodes below the
    cut, so the stripes' counts sum to the full tree's; the budget
    bounds every node this call performs.
    """
    n, r = tri.n, tri.r
    back = [tuple(w for w in tri.neighbors[v] if w < v) for v in range(n)]
    faces_at = [[] for _ in range(n)]
    if q == 4:  # the degree is a 4-coloring's; colors then stay below 5
        for f in tri.faces:
            faces_at[max(f)].append(f)
    pinned = _pins(tri)
    sign = sign_table()
    nodes = arrivals = below = 0
    limit = budget if budget is not None else float("inf")
    colors = bytearray(n)
    signed: dict[int, int] = {}
    # used_max >= 3, so below q = 5 it never limits a color
    wide = q > 4
    per_first = []  # the tables whose entries hold for one first row only

    def memo(a, table, compute):
        """The lookup of row a's entries in `table`, keyed by the colors
        of the row below (and used_max for q > 4): a miss stores
        compute(used_max) with the nodes it took, and a hit adds those
        nodes, as if compute ran again, and checks the budget."""

        def lookup(used_max):
            nonlocal nodes
            key = bytes(colors[a - r:a])
            if wide:
                key = key, used_max
            entry = table.get(key)
            if entry is None:
                count = nodes
                out = compute(used_max)
                table[key] = nodes - count, out
                return out
            nodes += entry[0]
            if nodes > limit:
                raise BudgetExceeded("nodes", budget)
            return entry[1]
        return lookup

    def extensions(a, used_max):
        """The colorings of row a..a+r-1, each with its degree increment
        and top color."""
        b = a + r
        rows = []

        def record(d, um):
            row = bytes(colors[a:b])
            rows.append((row, d, max(row)))

        search(a, b, record, 0, used_max)
        return rows

    def replay(a, rows_of, go):
        """Color row a from its stored colorings, each going on to `go`."""
        b = a + r

        def visit(deg, used_max):
            for row, d, top in rows_of(used_max):
                colors[a:b] = row
                go(deg + d, used_max if top <= used_max else top)
        return visit

    def subtree(a, rows_of, hist_of, used_max):
        """The signed-degree histogram of the subtree from row a down,
        relative to its entry; `hist_of` is the next row's, or None below
        the last row."""
        b = a + r
        out = {}
        for row, d, top in rows_of(used_max):
            if hist_of is None:
                out[d] = out.get(d, 0) + 1
                continue
            colors[a:b] = row
            for k, c in hist_of(used_max if top <= used_max
                                else top).items():
                k += d
                out[k] = out.get(k, 0) + c
        return out

    def search(v, end, go, deg, used_max):
        """Color vertices v..end-1 in place, then go on to `go`."""
        nonlocal nodes
        if v == end:
            go(deg, used_max)
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
                d += sign[(colors[a] * 5 + colors[b]) * 5 + colors[c]]
            search(v + 1, end, go, d, used_max if col <= used_max else col)
        colors[v] = 0

    def add_below(hist_of, deg, used_max):
        for d, c in hist_of(used_max).items():
            d += deg
            signed[d] = signed.get(d, 0) + c

    def gate(go, deg, used_max):
        """Go on below this stripe's first rows, each a new one."""
        nonlocal arrivals, below
        if arrivals % stripes == stripe:
            for table in per_first:
                table.clear()
            count = nodes
            go(deg, used_max)
            below += nodes - count
        arrivals += 1

    def leaf(deg, used_max):
        signed[deg] = signed.get(deg, 0) + 1
        if sink is not None:
            sink(colors, deg)

    # the rows from `memoised` on, rows 2..s-1 when s > 3, are memoised:
    # the subtree below one meets the rows above only through the row
    # below and the first row
    memoised = 2 * r if n > 3 * r else n
    middle = {}  # the table the middle rows share
    go, hist_of = leaf, None
    for a in range(n - r, -1, -r):
        if a == 0:
            go = functools.partial(gate, go)
        if a < memoised:
            go = functools.partial(search, a, a + r, go)
            continue
        if a == n - r:
            table = {}
            per_first.append(table)
        else:
            table = middle
        rows_of = memo(a, table, functools.partial(extensions, a))
        if sink is None:
            per_first.append({})
            hist_of = memo(a, per_first[-1],
                           functools.partial(subtree, a, rows_of, hist_of))
        else:
            go = replay(a, rows_of, go)
        if a == memoised and sink is None:
            go = functools.partial(add_below, hist_of)
    try:
        # the pinned face holds 3 before its vertices are reached
        go(0, 3)
    finally:
        # search reaches itself through its closure; left standing, that
        # cycle keeps the torus's tables alive until the cyclic
        # collector happens to run
        del search
    return (nodes if stripe == 0 else below), signed


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

    With more than one stripe, this part searches row 0 and goes on
    below every stripes-th coloring of it, from the stripe-th on (a
    one-row torus has nothing below); only stripe 0 counts the nodes of
    row 0 (see `_dfs`).
    Returns (total, |degree| histogram, nodes, state degrees), folded from
    the search's signed-degree histogram; the state degrees are empty
    unless `collect`.
    """
    tri = build(*rst)
    n = tri.n
    engine = PackedKempe(tri, q) if collect else None
    degs: dict[int, int] = {}

    def sink(colors, deg):
        degs[canonical_packed(engine.label_masks(colors), n)] = abs(deg)

    nodes, signed = _dfs(tri, q, budget, sink if collect else None,
                         stripes, stripe)
    hist: dict[int, int] = {}
    for d, count in signed.items():
        hist[abs(d)] = hist.get(abs(d), 0) + count
    return sum(signed.values()), hist, nodes, degs


def enumerate_colorings(tri: Triangulation, q: int, *, budget_nodes=None,
                        threads: int = 1, collect: bool = False
                        ) -> EnumerationResult:
    """Count canonical proper q-colorings; histogram |degree| for q = 4.

    `collect` maps the canonical key of every state to its |degree| at
    q = 4, and to 0 at any other q.  One thread searches the whole tree
    in-process; with `threads` > 1 the tree is cut at the end of row 0
    (at the leaves on a one-row torus) into `threads` interleaved stripes
    of first rows, each searched by one task of a process pool of at
    most `os.cpu_count()` workers.  A narrow torus has few first rows
    (T(3,s,t) has 2 at q = 4), so it splits into few nonempty stripes.
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

    `degs` maps every enumerated state to its |degree|, and each state
    the search reaches is set to None there and appended to `members`,
    which the search reads in order as it grows, a FIFO queue; callers
    share `degs` across classes.  A Kempe move to a state missing from
    `degs` is a bug.
    """
    dhist = {degs[seed]: 1}
    degs[seed] = None
    members = [seed]
    try:
        for state in members:
            for k in engine.neighbor_keys(state):
                d = degs[k]
                if d is not None:
                    degs[k] = None
                    dhist[d] = dhist.get(d, 0) + 1
                    members.append(k)
    except KeyError:
        raise AssertionError(
            "Kempe move left the enumerated state universe: bug") from None
    return len(members), dhist, min(members)


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

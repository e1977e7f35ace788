"""Exhaustive enumeration of canonical proper colorings and their Kempe classes.

Enumeration is depth-first backtracking over vertices in row-major order
with forward properness checks against already-colored neighbours.  One
orbit representative per global color permutation is generated by pinning
the up triangle at (1,1), the first face, to colors 1,2,3 (every orbit of
a proper coloring contains exactly one member with that face so colored);
colors beyond 3 must first appear in ascending order, which is vacuous for
q=4.
The signed degree is maintained incrementally as faces complete, so the
|degree| histogram costs O(1) per leaf.

Class decomposition is a BFS over the Kempe graph on canonical states,
keyed by a 2-bit-per-vertex packed encoding.  Kempe components are found
with shift-based bitboard flood fills (the lattice is translation
invariant, so the neighbourhood of a vertex set is six shifted copies).
Every state and the visited set are held in memory.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import multiprocessing
import time
from dataclasses import dataclass, field

from .coloring import Coloring, canonicalize, three_coloring
from .degree import degree
from .lattice import Triangulation


class BudgetExceeded(RuntimeError):
    def __init__(self, kind: str, limit):
        super().__init__(f"{kind} budget exceeded (limit {limit})")
        self.kind = kind
        self.limit = limit


# sign of a face colored (a,b,c) clockwise against target triangle {1,2,3};
# indexed base 10 so any q <= 9 stays in range
_SIGN = [0] * 1000
for _perm in itertools.permutations((1, 2, 3)):
    _s = 1 if _perm in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1
    _SIGN[_perm[0] * 100 + _perm[1] * 10 + _perm[2]] = _s


@dataclass
class EnumerationResult:
    total: int
    histogram: dict | None          # |degree| -> count, q = 4 only
    nodes: int                      # DFS assignments explored
    elapsed: float
    states: list | None = None      # canonical packed keys, if collected
    state_degrees: dict | None = None  # packed key -> |degree|


def _prepare(tri: Triangulation):
    n = tri.n
    back = [tuple(w for w in tri.neighbors[v] if w < v) for v in range(n)]
    faces_at = [[] for _ in range(n)]
    for f in tri.faces:
        faces_at[max(f)].append(f)
    faces_at = [tuple(fs) for fs in faces_at]
    return back, faces_at


def _pins(tri: Triangulation) -> dict[int, int]:
    """Vertex -> pinned color on the first face, the up triangle at (1,1).

    Its corners are (1,1), (2,1) and (2,2); on a one-row torus (2,2)
    wraps onto the single row, so it is not vertex r + 1.
    """
    v, ne, e = tri.faces[0]
    return {v: 1, e: 2, ne: 3}


def _dfs(tri, q, colors, start, used_max, budget, sink):
    """Backtracking continuation from vertex `start`; calls sink(colors, deg).

    `colors` must hold a proper partial assignment of vertices < start.
    Returns the number of assignments performed (nodes).
    """
    n = tri.n
    back, faces_at = _prepare(tri)
    pinned = _pins(tri)
    sign = _SIGN
    nodes = 0
    limit = budget if budget is not None else float("inf")

    deg0 = 0
    for v in range(start):
        for a, b, c in faces_at[v]:
            deg0 += sign[colors[a] * 100 + colors[b] * 10 + colors[c]]

    def rec(v, deg, used_max):
        nonlocal nodes
        if v == n:
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
                d += sign[colors[a] * 100 + colors[b] * 10 + colors[c]]
            rec(v + 1, d, used_max if col <= used_max else col)
        colors[v] = 0

    rec(start, deg0, used_max)
    return nodes


def _collect_prefixes(tri, q, depth):
    """Proper pinned assignments of vertices [0, depth) for task splitting.

    Returns (prefixes, nodes); `nodes` counts the assignments made here,
    so that a split search reports the same node total as an unsplit one.
    """
    prefixes = []
    nodes = 0
    colors = bytearray(tri.n)
    back, _ = _prepare(tri)
    pinned = _pins(tri)

    def rec(v, used_max):
        nonlocal nodes
        if v == depth:
            prefixes.append((bytes(colors[:depth]), used_max))
            return
        pin = pinned.get(v)
        lo, hi = (pin, pin) if pin is not None else (1, min(q, used_max + 1))
        for col in range(lo, hi + 1):
            if any(colors[w] == col for w in back[v]):
                continue
            nodes += 1
            colors[v] = col
            rec(v + 1, max(used_max, col))
        colors[v] = 0

    rec(0, 3)
    return prefixes, nodes


def _pack(colors, offset=1) -> int:
    """2 bits per vertex, vertex 0 in the lowest bits; colors offset..offset+3."""
    packed = 0
    for v in reversed(range(len(colors))):
        packed = (packed << 2) | (colors[v] - offset)
    return packed


def _unpack(packed: int, n: int) -> bytes:
    return bytes(((packed >> (2 * v)) & 3) + 1 for v in range(n))


# 24 color-permutation remap tables over one packed byte (4 vertices)
_PERM_TABLES: dict[tuple, bytes] = {}
for _p in itertools.permutations(range(4)):
    _PERM_TABLES[_p] = bytes(
        _p[b & 3] | (_p[(b >> 2) & 3] << 2) | (_p[(b >> 4) & 3] << 4)
        | (_p[(b >> 6) & 3] << 6) for b in range(256))
_IDENTITY_PERM = (0, 1, 2, 3)

# spread a vertex-mask byte to a packed-domain 16-bit word (bit v -> bit 2v)
_SPREAD = []
for _b in range(256):
    _w = 0
    for _i in range(8):
        if _b >> _i & 1:
            _w |= 1 << (2 * _i)
    _SPREAD.append(_w)


def canonical_packed(packed: int, n: int, nbytes: int) -> int:
    """First-appearance canonical form of a packed q=4 coloring."""
    perm = [-1, -1, -1, -1]
    nxt = 0
    p = packed
    for _ in range(n):
        c = p & 3
        if perm[c] < 0:
            perm[c] = nxt
            nxt += 1
            if nxt == 4:
                break
        p >>= 2
    if nxt < 4:
        for c in range(4):
            if perm[c] < 0:
                perm[c] = nxt
                nxt += 1
    perm = tuple(perm)
    if perm == _IDENTITY_PERM:
        return packed
    table = _PERM_TABLES[perm]
    raw = packed.to_bytes(nbytes, "little")
    out = int.from_bytes(bytes(table[b] for b in raw), "little")
    return out & ((1 << (2 * n)) - 1)  # padding bits also got remapped


class PackedKempe:
    """Bitboard Kempe-move engine for q=4 on a fixed triangulation."""

    def __init__(self, tri: Triangulation):
        self.tri = tri
        n = self.n = tri.n
        self.nbytes = (2 * n + 7) // 8
        r, s, t = tri.r, tri.s, tri.t
        full = (1 << n) - 1
        col1 = colr = 0
        for y in range(s):
            col1 |= 1 << (y * r)
            colr |= 1 << (y * r + r - 1)
        row1 = (1 << r) - 1
        rows_mask = row1 << ((s - 1) * r)
        not_col1 = full ^ col1
        not_colr = full ^ colr
        not_row1 = full ^ row1
        not_rows = full ^ rows_mask

        def east(m):
            return ((m & not_colr) << 1) | ((m & colr) >> (r - 1))

        def west(m):
            return ((m & not_col1) >> 1) | ((m & col1) << (r - 1))

        def north(m):
            top = m >> ((s - 1) * r)
            if t:
                top = ((top << t) | (top >> (r - t))) & row1
            return ((m & not_rows) << r) | top

        def south(m):
            bot = m & row1
            if t:
                bot = ((bot >> t) | (bot << (r - t))) & row1
            return ((m & not_row1) >> r) | (bot << ((s - 1) * r))

        def neighborhood(m):
            nn = north(m)
            ss = south(m)
            return east(m) | west(m) | nn | ss | east(nn) | west(ss)

        self._nbh = neighborhood

    def pack(self, c: Coloring) -> int:
        return _pack(c.colors)

    def unpack(self, packed: int) -> Coloring:
        return Coloring(self.tri, 4, _unpack(packed, self.n))

    def canonical(self, packed: int) -> int:
        return canonical_packed(packed, self.n, self.nbytes)

    def color_masks(self, packed: int) -> list[int]:
        masks = [0, 0, 0, 0]
        for v in range(self.n):
            masks[(packed >> (2 * v)) & 3] |= 1 << v
        return masks

    def components(self, region: int) -> list[int]:
        nbh = self._nbh
        comps = []
        rem = region
        while rem:
            comp = rem & -rem
            while True:
                grown = comp | (nbh(comp) & region)
                if grown == comp:
                    break
                comp = grown
            comps.append(comp)
            rem &= ~comp
        return comps

    def _xor_mask(self, comp: int, xv: int) -> int:
        spread = 0
        shift = 0
        while comp:
            spread |= _SPREAD[comp & 0xFF] << shift
            comp >>= 8
            shift += 16
        return spread * xv

    def neighbor_keys(self, packed: int) -> list[int]:
        """Canonical packed forms reachable by one Kempe change.

        Swapping a component that covers the whole two-color subgraph is
        a global color permutation, hence canonically trivial; skipped.
        """
        masks = self.color_masks(packed)
        n, nbytes = self.n, self.nbytes
        out = []
        for a in range(4):
            for b in range(a + 1, 4):
                region = masks[a] | masks[b]
                if not region:
                    continue
                comps = self.components(region)
                if len(comps) <= 1:
                    continue
                xv = a ^ b
                for comp in comps:
                    out.append(canonical_packed(
                        packed ^ self._xor_mask(comp, xv), n, nbytes))
        return out


def _enum_task(tri, q, budget, collect, task):
    """Enumerate below one (prefix, used_max) task.

    Returns (total, |degree| histogram, nodes, states, state degrees).
    """
    prefix, used_max = task
    n, nbytes = tri.n, (2 * tri.n + 7) // 8
    colors = bytearray(n)
    colors[:len(prefix)] = prefix
    total = 0
    hist: dict[int, int] = {}
    states: list[int] = []
    degs: dict[int, int] = {}

    def sink(colors, deg):
        nonlocal total
        total += 1
        d = abs(deg)
        hist[d] = hist.get(d, 0) + 1
        if collect:
            key = canonical_packed(_pack(colors), n, nbytes)
            states.append(key)
            degs[key] = d

    nodes = _dfs(tri, q, colors, len(prefix), used_max, budget, sink)
    return total, hist, nodes, states, degs


def enumerate_colorings(tri: Triangulation, q: int, *, budget_nodes=None,
                        threads: int = 1, collect: bool = False
                        ) -> EnumerationResult:
    """Count canonical proper q-colorings; histogram |degree| for q = 4.

    `collect` gathers the canonical packed states (q = 4 only).  With
    `threads` > 1 the search tree is split at a fixed prefix depth into
    tasks for a process pool; one thread runs the single empty-prefix
    task in-process.  Results, node count included, are independent of
    `threads`.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if collect and q != 4:
        raise ValueError("state collection is implemented for q = 4")
    t0 = time.perf_counter()
    task = functools.partial(_enum_task, tri, q, budget_nodes, collect)
    total = 0
    hist: dict[int, int] = {}
    states = [] if collect else None
    degs = {} if collect else None
    with contextlib.ExitStack() as stack:
        if threads > 1:
            prefixes, nodes = _collect_prefixes(tri, q, min(2 * tri.r, tri.n))
            pool = stack.enter_context(multiprocessing.Pool(threads))
            parts = pool.imap_unordered(
                task, prefixes,
                chunksize=max(1, len(prefixes) // (8 * threads)))
        else:
            nodes, parts = 0, map(task, [(b"", 3)])
        for ptotal, phist, pnodes, pstates, pdegs in parts:
            total += ptotal
            nodes += pnodes
            if budget_nodes is not None and nodes > budget_nodes:
                raise BudgetExceeded("nodes", budget_nodes)
            for k, v in phist.items():
                hist[k] = hist.get(k, 0) + v
            # adopt the first part: copying its states would double the
            # peak memory of a one-thread run
            if collect and not states:
                states, degs = pstates, pdegs
            elif collect:
                states.extend(pstates)
                degs.update(pdegs)
    if collect:
        states.sort()
    return EnumerationResult(total, hist if q == 4 else None, nodes,
                             time.perf_counter() - t0, states, degs)


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

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def _bfs_levels(neighbors, seed, visited, universe=None, budget_states=None):
    """Yield the BFS levels (sets of states) of the Kempe class of `seed`.

    `neighbors(state)` lists the canonical states one Kempe change away.
    Every state yielded is added to `visited`, which callers share across
    classes.  A state outside `universe` (the enumerated states, if given)
    is a bug; more than `budget_states` states raise BudgetExceeded.
    """
    visited.add(seed)
    level = {seed}
    size = 0
    while level:
        size += len(level)
        if budget_states is not None and size > budget_states:
            raise BudgetExceeded("states", budget_states)
        yield level
        nxt = set()
        for state in level:
            nxt.update(neighbors(state))
        level = nxt - visited
        if universe is not None and not level <= universe:
            raise AssertionError(
                "Kempe move left the enumerated state universe: bug")
        visited |= level


def _bfs_class_stats(engine: PackedKempe, seed: int, degs: dict, visited,
                     budget_states=None):
    """BFS one Kempe class; returns (size, |degree| histogram).

    `degs` maps every enumerated state to its |degree|.
    """
    size = 0
    dhist: dict[int, int] = {}
    for level in _bfs_levels(engine.neighbor_keys, seed, visited,
                             degs.keys(), budget_states):
        size += len(level)
        for k in level:
            d = degs[k]
            dhist[d] = dhist.get(d, 0) + 1
    return size, dhist


def kempe_classes(tri: Triangulation, q: int = 4, *, budget_nodes=None,
                  budget_states=None, threads: int = 1) -> ClassDecomposition:
    """Partition all canonical proper q-colorings into Kempe classes.

    q = 4 uses the packed bitboard engine with every state held in
    memory.  On 3-colorable tori each class is checked to carry a single
    |degree| residue mod 12 (the Kempe invariant), which is reported;
    elsewhere the invariant does not hold and the residue is None.  Other
    q fall back to a generic canonical-bytes BFS (small instances only).
    """
    if q != 4:
        return _kempe_classes_generic(tri, q, budget_nodes, budget_states)
    engine = PackedKempe(tri)
    enum = enumerate_colorings(tri, q, budget_nodes=budget_nodes,
                               threads=threads, collect=True)
    three_colorable = tri.is_three_colorable()
    visited: set[int] = set()
    classes = []
    for seed in enum.states:
        if seed in visited:
            continue
        size, dhist = _bfs_class_stats(engine, seed, enum.state_degrees,
                                       visited, budget_states)
        residue = None
        if three_colorable:
            residues = {d % 12 for d in dhist}
            assert len(residues) == 1, (
                f"Kempe class mixes degree residues {residues}: bug")
            residue = residues.pop()
        classes.append(KempeClass(size, residue, engine.unpack(seed), dhist))
    classes.sort(key=lambda c: -c.size)
    total = sum(c.size for c in classes)
    assert total == enum.total, \
        "class sizes do not sum to the enumeration total"
    return ClassDecomposition(tri, q, total, classes)


def _kempe_classes_generic(tri, q, budget_nodes, budget_states):
    from .kempe import kempe_change, kempe_components, KempeMove

    # the pinned DFS emits one member of each orbit; canonical bytes name it
    states: list[bytes] = []

    def sink(colors, deg):
        states.append(canonicalize(Coloring(tri, q, bytes(colors))).colors)

    _dfs(tri, q, bytearray(tri.n), 0, 3, budget_nodes, sink)
    states.sort()

    def neighbors(key):
        c = Coloring(tri, q, key)
        out = []
        for a in range(1, q + 1):
            for b in range(a + 1, q + 1):
                comps = kempe_components(tri, c, a, b)
                if len(comps) > 1:
                    out.extend(canonicalize(
                        kempe_change(tri, c, KempeMove(a, b, comp))).colors
                        for comp in comps)
        return out

    universe = set(states)
    visited: set[bytes] = set()
    classes = []
    for seed in states:
        if seed in visited:
            continue
        size = sum(len(level) for level in _bfs_levels(
            neighbors, seed, visited, universe, budget_states))
        classes.append(KempeClass(size, 0, Coloring(tri, q, seed)))
    classes.sort(key=lambda c: -c.size)
    return ClassDecomposition(tri, q, sum(c.size for c in classes), classes)


def class_of(tri: Triangulation, c: Coloring, *, certify: bool = False,
             budget_states: int = 200_000) -> dict:
    """Degree residue mod 12 as a sound Kempe-class separator.

    Distinct residues imply distinct classes on 3-colorable tori.  With
    `certify`, a bounded BFS checks reachability of the 3-coloring.
    """
    if not tri.is_three_colorable():
        raise ValueError(f"{tri.descriptor()} is not three-colorable")
    rep = degree(tri, c)
    residue = rep.degree % 12
    out = {"residue": residue,
           "label": "ergodic-class" if residue == 0 else "obstructed-class",
           "certified_with_three_coloring": None}
    if certify:
        engine = PackedKempe(tri)
        target = engine.canonical(engine.pack(
            Coloring(tri, 4, three_coloring(tri).colors)))
        seed = engine.canonical(engine.pack(c))
        levels = _bfs_levels(engine.neighbor_keys, seed, set(),
                             budget_states=budget_states)
        try:
            out["certified_with_three_coloring"] = any(
                target in level for level in levels)
        except BudgetExceeded:
            pass
    return out

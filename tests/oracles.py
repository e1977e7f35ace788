"""Independent reference implementations used as test oracles.

Nothing here shares code paths with the library's enumeration, degree,
or class machinery: colorings, and the enumeration's node count, come
from plain backtracking over the adjacency lists, Kempe components come
from a set-based flood fill (over neighbour lists rebuilt from the torus
coordinates when the lattice itself is under test), edges, face
adjacency and the regions of a cut are read off the face triples alone,
and the degree census comes from a row-transfer matrix evaluated at
roots of unity.
"""

import itertools

import numpy as np


def brute_force_colorings(tri, q):
    """All proper labeled colorings (no symmetry reduction), as tuples."""
    n = tri.n
    back = [tuple(w for w in tri.neighbors[v] if w < v) for v in range(n)]
    out = []
    colors = [0] * n

    def rec(v):
        if v == n:
            out.append(tuple(colors))
            return
        for col in range(1, q + 1):
            if all(colors[w] != col for w in back[v]):
                colors[v] = col
                rec(v + 1)
        colors[v] = 0

    rec(0)
    return out


def brute_force_count(tri, q):
    n = tri.n
    back = [tuple(w for w in tri.neighbors[v] if w < v) for v in range(n)]
    colors = [0] * n
    count = 0

    def rec(v):
        nonlocal count
        if v == n:
            count += 1
            return
        for col in range(1, q + 1):
            if all(colors[w] != col for w in back[v]):
                colors[v] = col
                rec(v + 1)
        colors[v] = 0

    rec(0)
    return count


def face_incidence(faces):
    """{(u, w) with u < w: [(face id, apex), (face id, apex)]} for every
    edge of the face boundaries, read from the vertex triples alone."""
    incidence = {}
    for fid, (a, b, c) in enumerate(faces):
        for u, w, apex in ((a, b, c), (b, c, a), (c, a, b)):
            incidence.setdefault((min(u, w), max(u, w)), []).append((fid, apex))
    return incidence


def cut_sides(faces, cut):
    """Regions of the faces after cutting along the edges `cut`, given as
    vertex pairs (u, w) with u < w: (face count, least face, vertex set)
    of each, least face first, by flood fill over the face adjacency read
    off the vertex triples alone."""
    adjacent = [[] for _ in faces]
    for key, ((f, _), (g, _)) in face_incidence(faces).items():
        if key not in cut:
            adjacent[f].append(g)
            adjacent[g].append(f)
    seen = set()
    sides = []
    for f0 in range(len(faces)):
        if f0 in seen:
            continue
        region = {f0}
        stack = [f0]
        while stack:
            for g in adjacent[stack.pop()]:
                if g not in region:
                    region.add(g)
                    stack.append(g)
        seen |= region
        sides.append((len(region), f0,
                      {v for f in region for v in faces[f]}))
    return sides


def has_three_coloring(tri):
    """3-colorability by forced propagation across the dual graph.

    In a triangulation, a fully colored face forces the apex of every
    adjacent face (the third color), so a proper 3-coloring is determined
    by its restriction to one face; pinning that face to (1,2,3) loses no
    generality modulo color permutations.  Decides in O(faces).
    """
    adjacent = [[] for _ in tri.faces]
    for (f, _), (g, _) in face_incidence(tri.faces).values():
        adjacent[f].append(g)
        adjacent[g].append(f)
    colors = [0] * tri.n
    f0 = tri.faces[0]
    for v, col in zip(f0, (1, 2, 3)):
        colors[v] = col
    seen = [False] * len(tri.faces)
    seen[0] = True
    stack = [0]
    while stack:
        f = stack.pop()
        for g in adjacent[f]:
            if seen[g]:
                continue
            a, b, c = tri.faces[g]
            cols = [colors[a], colors[b], colors[c]]
            if 0 in cols:
                missing = (a, b, c)[cols.index(0)]
                known = [x for x in cols if x]
                if known[0] == known[1]:
                    return False
                colors[missing] = 6 - known[0] - known[1]
            seen[g] = True
            stack.append(g)
    # propagation colored everything; properness decides
    for v in range(tri.n):
        for w in tri.neighbors[v]:
            if w > v and colors[v] == colors[w]:
                return False
    return True


def naive_degree(tri, coloring, target=(1, 2, 3)):
    """Degree by direct face inspection with explicit rotations."""
    tset = set(target)
    rots = {tuple(target), (target[1], target[2], target[0]),
            (target[2], target[0], target[1])}
    p = n = 0
    for (a, b, c) in tri.faces:
        cols = (coloring[a], coloring[b], coloring[c])
        if set(cols) != tset:
            continue
        if cols in rots:
            p += 1
        else:
            n += 1
    return p - n


def torus_neighbors(r, s, t):
    """Neighbour lists of T(r,s,t) from its coordinates alone.

    Vertex (x, y), 0-based, is x + y r; its neighbours lie at the
    displacements E, W, N, S, NE, SW, and crossing the top row shifts x
    by t (the bottom row by -t).
    """
    def vertex(x, y):
        wraps, y = divmod(y, s)
        return (x + wraps * t) % r + y * r

    return [[vertex(x + dx, y + dy)
             for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))]
            for y in range(s) for x in range(r)]


def plain_search_nodes(tri, q):
    """Assignments of the pinned vertex-by-vertex search over the
    neighbour lists of `torus_neighbors`, in row-major order.

    The up triangle at (1,1), vertex 0 with its E and NE neighbours, is
    pinned to colors 1, 2, 3, and a color past 3 may be used only once
    every color below it has been; every proper assignment counts, a
    leaf or not.
    """
    nbrs = torus_neighbors(tri.r, tri.s, tri.t)
    n = len(nbrs)
    back = [[w for w in nbrs[v] if w < v] for v in range(n)]
    pins = {0: 1, nbrs[0][0]: 2, nbrs[0][4]: 3}
    colors = [0] * n
    nodes = 0

    def rec(v, top):
        nonlocal nodes
        if v == n:
            return
        choices = [pins[v]] if v in pins else range(1, min(q, top + 1) + 1)
        for col in choices:
            if all(colors[w] != col for w in back[v]):
                nodes += 1
                colors[v] = col
                rec(v + 1, max(top, col))
        colors[v] = 0

    rec(0, 3)
    return nodes


def two_color_components(neighbors, colors, a, b):
    """Components of the subgraph induced by colors {a, b}, as vertex
    sets, least vertex first, by flood fill over `neighbors`."""
    seen = set()
    comps = []
    for v in range(len(colors)):
        if colors[v] not in (a, b) or v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in neighbors[u]:
                if colors[w] in (a, b) and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def brute_force_kempe_classes(tri, q=4):
    """Kempe classes of all labeled proper q-colorings, by union-find.

    Every two-color component of every labeled coloring is flood-filled
    and swapped, and the two colorings are joined.  Returns each class as
    a list of labeled colorings.
    """
    states = brute_force_colorings(tri, q)
    index = {c: i for i, c in enumerate(states)}
    parent = list(range(len(states)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, c in enumerate(states):
        for a, b in itertools.combinations(range(1, q + 1), 2):
            for comp in two_color_components(tri.neighbors, c, a, b):
                swapped = tuple((a + b - x) if k in comp else x
                                for k, x in enumerate(c))
                parent[find(i)] = find(index[swapped])
    classes = {}
    for i, c in enumerate(states):
        classes.setdefault(find(i), []).append(c)
    return list(classes.values())


def degree_histogram(tri, colorings):
    """{|degree|: count} over labeled 4-colorings, by `naive_degree`."""
    hist = {}
    for c in colorings:
        d = abs(naive_degree(tri, c))
        hist[d] = hist.get(d, 0) + 1
    return hist


def first_appearance(c):
    """Relabel a coloring's colors 1, 2, ... in order of first use."""
    perm = {}
    return tuple(perm.setdefault(x, len(perm) + 1) for x in c)


def _row_states(r, q):
    states = []
    for s in itertools.product(range(1, q + 1), repeat=r):
        if all(s[i] != s[(i + 1) % r] for i in range(r)):
            states.append(s)
    return states


def _triangle_signs(base):
    """+1 / -1 for the clockwise color triples that are rotations of
    (1,2,3) / (1,3,2), 0 for every other triple, at (a*base + b)*base + c."""
    signs = np.zeros(base ** 3, dtype=np.int8)
    for x, y, z in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        signs[(x * base + y) * base + z] = 1
        signs[(x * base + z) * base + y] = -1
    return signs


def _strip_tables(states, q, shift):
    """(allowed, degree contribution) for every pair of consecutive rows,
    state i below state j, row j cyclically shifted by the twist.

    Broadcast over (i, j, x): below x sit a = s_i[x] and b = s_i[x+1],
    above it nv = s_j[x+shift] and nu = s_j[x+1+shift]; the strip holds
    the up face (a, nu, b) and the down face (a, nv, nu), both clockwise.
    """
    base = q + 1
    rows = np.array(states, dtype=np.int32)
    a = rows[:, None, :]
    b = np.roll(rows, -1, axis=1)[:, None, :]
    nv = np.roll(rows, -shift, axis=1)[None, :, :]
    nu = np.roll(rows, -shift - 1, axis=1)[None, :, :]
    allowed = ~((a == nv) | (a == nu) | (b == nu)).any(axis=2)
    signs = _triangle_signs(base)
    up = signs[(a * base + nu) * base + b]
    down = signs[(a * base + nv) * base + nu]
    d = (up + down).sum(axis=2, dtype=np.int8)
    return allowed.astype(np.int8), np.where(allowed, d, 0).astype(np.int8)


def transfer_matrix_census(r, s, t, q=4):
    """Signed-degree histogram of all labeled proper q-colorings.

    Builds the row-transfer matrix with z^degree weights and recovers the
    integer histogram by evaluating the trace at roots of unity.  Exact:
    all counts stay far below 2**53.
    """
    states = _row_states(r, q)
    ns = len(states)
    a0, d0 = _strip_tables(states, q, 0)
    at, dt = _strip_tables(states, q, t)
    maxdeg = r * s // 2
    m = 1
    while m < 2 * maxdeg + 2:
        m *= 2
    samples = np.zeros(m, dtype=complex)
    # the counts are real, so the sample at z^-1 is the conjugate of the
    # sample at z: only the upper half-circle is evaluated
    for k in range(m // 2 + 1):
        z = np.exp(2j * np.pi * k / m)
        m0 = a0 * z ** d0
        mt = at * z ** dt
        power = m0 if s > 1 else np.eye(ns, dtype=complex)
        for _ in range(s - 2):
            power = power @ m0
        # trace(power @ mt), without forming the last product
        samples[k] = (power * mt.T).sum()
        samples[-k] = samples[k].conjugate()
    coef = np.fft.fft(samples) / m
    hist = {}
    for d in range(m):
        cnt = round(coef[d].real)
        assert abs(coef[d].real - cnt) < 1e-3, "census rounding failure"
        if cnt:
            deg = d if d <= m // 2 else d - m
            hist[deg] = cnt
    return hist


def canonical_abs_census(r, s, t):
    """|degree| -> number of canonical colorings (labeled / 4!).

    T(r,s,0) with r > s runs as T(s,r,0): transposing the grid maps the
    torus onto itself and only flips the sign of every degree, and the
    tables grow with the width.
    """
    if t == 0 and r > s:
        r, s = s, r
    hist = transfer_matrix_census(r, s, t, 4)
    out = {}
    for d, cnt in hist.items():
        out[abs(d)] = out.get(abs(d), 0) + cnt
    result = {}
    for d, cnt in out.items():
        assert cnt % 24 == 0, "labeled orbit counts must divide by 4!"
        result[d] = cnt // 24
    return result

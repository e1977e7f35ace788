"""Independent reference implementations used as test oracles.

Nothing here shares code paths with the library's enumeration, degree,
or class machinery: colorings are enumerated by plain backtracking over
the adjacency lists, Kempe components come from a set-based flood fill
(over neighbour lists rebuilt from the torus coordinates when the
lattice itself is under test), and the degree census comes from a
row-transfer matrix evaluated at roots of unity.
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


def has_three_coloring(tri):
    """3-colorability by forced propagation across the dual graph.

    In a triangulation, a fully colored face forces the apex of every
    adjacent face (the third color), so a proper 3-coloring is determined
    by its restriction to one face; pinning that face to (1,2,3) loses no
    generality modulo color permutations.  Decides in O(faces).
    """
    colors = [0] * tri.n
    f0 = tri.faces[0]
    for v, col in zip(f0, (1, 2, 3)):
        colors[v] = col
    seen = [False] * len(tri.faces)
    seen[0] = True
    stack = [0]
    while stack:
        f = stack.pop()
        for g, _eid in tri.face_adjacency[f]:
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


def _strip_delta(s1, s2, r, shift):
    """(allowed, degree contribution) for consecutive rows s1 below s2,
    s2 cyclically shifted by the twist."""
    d = 0
    for x in range(r):
        a, b = s1[x], s1[(x + 1) % r]
        nv = s2[(x + shift) % r]
        nu = s2[(x + 1 + shift) % r]
        if a == nv or a == nu or b == nu:
            return False, 0
        for tri_cols in ((a, nu, b), (a, nv, nu)):  # up, down; clockwise
            if set(tri_cols) == {1, 2, 3}:
                d += 1 if tri_cols in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1
    return True, d


def transfer_matrix_census(r, s, t, q=4):
    """Signed-degree histogram of all labeled proper q-colorings.

    Builds the row-transfer matrix with z^degree weights and recovers the
    integer histogram by evaluating the trace at roots of unity.  Exact:
    all counts stay far below 2**53.
    """
    states = _row_states(r, q)
    ns = len(states)
    a0 = np.zeros((ns, ns), dtype=np.int8)
    d0 = np.zeros((ns, ns), dtype=np.int8)
    at = np.zeros((ns, ns), dtype=np.int8)
    dt = np.zeros((ns, ns), dtype=np.int8)
    for i, s1 in enumerate(states):
        for j, s2 in enumerate(states):
            ok, d = _strip_delta(s1, s2, r, 0)
            if ok:
                a0[i, j] = 1
                d0[i, j] = d
            ok, d = _strip_delta(s1, s2, r, t)
            if ok:
                at[i, j] = 1
                dt[i, j] = d
    maxdeg = r * s // 2
    m = 1
    while m < 2 * maxdeg + 2:
        m *= 2
    samples = np.zeros(m, dtype=complex)
    for k in range(m):
        z = np.exp(2j * np.pi * k / m)
        m0 = a0 * z ** d0
        mt = at * z ** dt
        prod = m0 if s > 1 else np.eye(ns, dtype=complex)
        for _ in range(s - 2):
            prod = prod @ m0
        prod = prod @ mt if s > 1 else mt
        samples[k] = np.trace(prod)
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

"""Non-singular edge structure of 4-colorings.

An edge xy with flanking triangles xyz and xyw is singular when z and w
receive the same color and non-singular otherwise; _classify is the only
code that applies this rule, to every edge (and for ns_minimal_reduce
then to the edges at the vertices a surgery recolors).  For
each unordered color pair {i,j}, the non-singular edges whose endpoints
are colored i and j form N_ij, a disjoint union of cycles; every cycle
has a homotopy type (a,b) on the torus (winding numbers along the
periods (r,0) and (-t,s), read by Triangulation.winding) and is
contractible iff (a,b) = (0,0).

ns_minimal_reduce eliminates non-singular structure by one surgery: cut
the faces along one contractible N_ij cycle, or along two disjoint
(hence homotopic) cycles of one N_ij, and swap the two other colors on
one side.  One cycle leaves a disk (Euler characteristic chi = 1) and a
punctured torus (chi = -1), two cycles leave two cylinders (chi = 0);
the disk, or the smaller cylinder, is swapped.  A side with I interior
vertices and F faces, cut along cycles of B vertices in all, has B
boundary edges and (3F - B)/2 interior ones, so chi = I + (B - F)/2.
One face flood finds both sides (_sides): it reads the side it floods
whole off the face triples, and the other side is the complement.
Each surgery is a set of Kempe changes, strictly shrinks N(f), and
never creates non-singular edges outside the previous N(f); the loop
stops when every nonempty N_ij is a single non-contractible cycle (an
NS-minimal coloring).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from .coloring import Coloring, check_torus, is_proper
from .degree import degree
from .kempe import KempeMove, kempe_components, swap
from .lattice import DISPLACEMENTS, Triangulation

PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


@dataclass(frozen=True)
class NsCycle:
    pair: tuple[int, int]
    vertices: tuple[int, ...]   # consecutive vertices adjacent, cyclically
    edges: tuple[int, ...]      # edge ids, edges[i] joining vertices i, i+1
    homotopy: tuple[int, int]   # sign-canonical winding numbers

    @property
    def contractible(self) -> bool:
        return self.homotopy == (0, 0)


def _classify(tri: Triangulation, col: bytes, edge_ids) -> dict:
    """Color pair of each non-singular edge among `edge_ids`, in their
    order: {id: (i, j)}.  A monochromatic edge raises ValueError."""
    edges = tri.edges
    pairs = {}
    for eid in edge_ids:
        u, v, z, w = edges[eid]
        a = col[u]
        if a == col[v]:
            raise ValueError(f"edge {eid} joins two vertices colored {a}: "
                             "the coloring is not proper")
        if col[z] != col[w]:
            b = col[v]
            pairs[eid] = (a, b) if a < b else (b, a)
    return pairs


def classify_edges(tri: Triangulation, c: Coloring) -> dict:
    """Bucket the non-singular edges by color pair: {(i, j): ascending ids}.

    A color outside 1..4 or a monochromatic edge raises ValueError.
    """
    check_torus(tri, c)
    col = c.colors
    # deleting every allowed byte leaves nothing iff all colors are in range
    if col.translate(None, b"\1\2\3\4"):
        raise ValueError("edge classification expects colors 1..4")
    buckets: dict[tuple[int, int], list[int]] = {p: [] for p in PAIRS}
    for eid, pair in _classify(tri, col, range(len(tri.edges))).items():
        buckets[pair].append(eid)
    return buckets


def _sign_canonical(a: int, b: int) -> tuple[int, int]:
    if a < 0 or (a == 0 and b < 0):
        return -a, -b
    return a, b


def _cycle_homotopy(tri: Triangulation, vertices) -> tuple[int, int]:
    dx = dy = 0
    for i, u in enumerate(vertices):
        v = vertices[(i + 1) % len(vertices)]
        # the six neighbours of a vertex are distinct on every simple torus
        sx, sy = DISPLACEMENTS[tri.neighbors[u].index(v)]
        dx += sx
        dy += sy
    try:
        return _sign_canonical(*tri.winding(dx, dy))
    except ValueError:
        raise AssertionError(
            "cycle displacement not a lattice period: bug") from None


def _cycles(tri: Triangulation, pair, edge_ids) -> list[NsCycle]:
    """Walk the edges of one N_ij bucket into cycles, least start first."""
    incident: dict[int, list[tuple[int, int]]] = {}
    for eid in edge_ids:
        u, v = tri.edges[eid][:2]
        incident.setdefault(u, []).append((v, eid))
        incident.setdefault(v, []).append((u, eid))
    for v, nb in incident.items():
        if len(nb) != 2:
            raise AssertionError(
                f"vertex {v} has {len(nb)} incident non-singular {pair} edges; "
                "expected exactly 2: bug")
    cycles = []
    seen = set()
    for start in sorted(incident):
        if start in seen:
            continue
        walk, edges = [start], []
        seen.add(start)
        prev, cur = None, start
        while True:
            a, b = incident[cur]
            nxt, eid = a if a[0] != prev else b
            edges.append(eid)
            if nxt == start:
                break
            walk.append(nxt)
            seen.add(nxt)
            prev, cur = cur, nxt
        cycles.append(NsCycle(pair, tuple(walk), tuple(edges),
                              _cycle_homotopy(tri, walk)))
    return cycles


def all_ns_cycles(tri: Triangulation, c: Coloring) -> dict:
    """Decompose every N_ij into vertex-disjoint cycles with homotopy types."""
    return {p: _cycles(tri, p, es) for p, es in classify_edges(tri, c).items()}


def algcr(h1, h2) -> int:
    """Algebraic crossing number of homotopy types: det of their 2x2 matrix."""
    (a, b), (cc, d) = h1, h2
    return a * d - b * cc


def _closed_walk(tri: Triangulation, cycle: NsCycle) -> bool:
    """Whether `cycle` is one closed walk through distinct vertices, edge
    i joining vertices i and i + 1: a simple closed curve on the torus."""
    vs, edges = cycle.vertices, tri.edges
    return len(set(vs)) == len(vs) == len(cycle.edges) > 2 and all(
        set(edges[eid][:2]) == {a, b}
        for eid, a, b in zip(cycle.edges, vs, vs[1:] + vs[:1]))


def _sides(tri: Triangulation, cycles) -> list[tuple[int, int, int, int]]:
    """(-chi, faces, least face, interior vertex mask) of both sides of
    the cut along `cycles`, least face first.

    The sides are the components of the face-adjacency graph without the
    cycles' edges.  They are flooded in turn, one face each, from the two
    faces of the first cut edge, and each side's faces are recorded as
    they are labelled.  One cycle that is a closed walk through distinct
    vertices is a simple closed curve, which leaves at most two regions:
    once either flood runs out, its side is whole and every other face
    lies on the other, so the work is about twice the smaller side.  Two
    cycles flood both sides to the end.  A cut that leaves one region
    (the floods meet), or a third (a face is left unlabelled), is a bug.
    The side flooded whole is read off `tri.faces`, and the other side
    is its complement.
    """
    cut = {e for cy in cycles for e in cy.edges}
    adjacency = tri.face_adjacency
    first = cycles[0].edges[0]
    d, v = divmod(first, tri.n)
    # v's E and NE edges border its up face, its N edge its down face
    start = 2 * v + (d == 1)
    across = next(g for g, eid in adjacency[start] if eid == first)
    labels = bytearray(2 * tri.n)
    labels[start], labels[across] = 1, 2
    stacks = (None, [start], [across])
    flooded = (None, [start], [across])
    early = len(cycles) == 1 and _closed_walk(tri, cycles[0])
    label = 1
    while True:
        stack = stacks[label]
        for g, eid in adjacency[stack.pop()]:
            seen = labels[g]
            if seen != label and eid not in cut:
                if seen:
                    raise AssertionError(
                        f"{len(cycles)} N_ij cycle(s) split faces into "
                        "1 regions: bug")
                labels[g] = label
                stack.append(g)
                flooded[label].append(g)
        if not stack and (early or not stacks[3 - label]):
            break
        if stacks[3 - label]:
            label = 3 - label
    if not early and labels.find(0) >= 0:
        raise AssertionError(
            f"{len(cycles)} N_ij cycle(s) split faces into "
            "more than 2 regions: bug")
    # `label`'s side is whole, and the rest is the other side
    faces = flooded[label]
    boundary = {v for cy in cycles for v in cy.vertices}
    off_cut = (1 << tri.n) - 1 - sum(1 << v for v in boundary)
    interior = sum(1 << v for v in {v for f in faces for v in tri.faces[f]}
                   - boundary)
    # the other side's least face ends the run of `label` opening `labels`
    other = len(labels) - len(labels.lstrip(bytes([label])))
    sides = []
    for count, least, inside in ((len(faces), min(faces), interior),
                                 (len(labels) - len(faces), other,
                                  off_cut ^ interior)):
        chi = inside.bit_count() + (len(boundary) - count) // 2
        sides.append((-chi, count, least, inside))
    return sorted(sides, key=itemgetter(2))


def _surgery(tri: Triangulation, c: Coloring, cycles
             ) -> tuple[Coloring, list[KempeMove]]:
    """Swap the two colors off the cycles' pair on one side of their cut.

    The side is the one of highest Euler characteristic, then fewest
    faces, then least face index.  The interior k/l vertices split into
    whole Kempe components of the k,l subgraph (no component can cross
    the boundary, which carries neither color), so the swap is a set of
    K-changes; they are returned as the replayable move log.
    """
    if len({cy.homotopy for cy in cycles}) != 1:
        raise AssertionError(
            "disjoint cycles of one N_ij with unequal homotopy types: bug")
    sides = _sides(tri, cycles)
    expected = [-1, 1] if len(cycles) == 1 else [0, 0]
    if sorted(side[0] for side in sides) != expected:
        raise AssertionError(
            f"sides of {len(cycles)} N_ij cycle(s) have Euler characteristics "
            f"{[-side[0] for side in sides]}: bug")
    interior = min(sides)[3]
    k, l = [x for x in (1, 2, 3, 4) if x not in cycles[0].pair]
    moves = []
    for comp in kempe_components(tri, c, k, l):
        inside = comp & interior
        if not inside:
            continue
        if inside != comp:
            raise AssertionError(
                "Kempe component crosses a two-colored region boundary: bug")
        moves.append(KempeMove(k, l, comp))
    return swap(c, k, l, [move.component for move in moves]), moves


def ns_minimal_reduce(tri: Triangulation, c: Coloring
                      ) -> tuple[Coloring, list[KempeMove]]:
    """Reduce to an NS-minimal coloring in the same Kempe class.

    Returns the reduced coloring and the K-change log; replaying the log
    through kempe_change reproduces the reduction.  |N(f)| strictly
    decreases at every step and never gains new members, so the loop
    terminates within |E| surgeries.
    """
    if not tri.is_three_colorable():
        raise ValueError(f"{tri.descriptor()} is not three-colorable")
    if c.q != 4:
        raise ValueError("reduction expects a 4-coloring")
    if not is_proper(tri, c):
        raise ValueError("reduction expects a proper coloring")
    # every edge is classified once; a surgery re-classifies the edges it
    # can change, those with an end or apex among the recolored vertices,
    # and the cycles of a pair are walked again only when its edges changed
    ns = _classify(tri, c.colors, range(len(tri.edges)))
    walked: dict[tuple[int, int], list[NsCycle]] = {}
    incident = tri.incident_edges
    log: list[KempeMove] = []
    for _ in range(len(tri.edges) + 1):
        surgery = None
        for pair in PAIRS:
            cycles = walked.get(pair)
            if cycles is None:
                cycles = walked[pair] = _cycles(
                    tri, pair, sorted(e for e, p in ns.items() if p == pair))
            contractible = [cy for cy in cycles if cy.contractible]
            if contractible:
                surgery = contractible[:1]
                break
            if len(cycles) >= 2 and surgery is None:
                surgery = cycles[:2]
                # keep scanning: a contractible cycle elsewhere takes priority
        if surgery is None:
            return c, log
        after, moves = _surgery(tri, c, surgery)
        log.extend(moves)
        # byte v of the xor is nonzero exactly where v was recolored
        diff = (int.from_bytes(c.colors, "little")
                ^ int.from_bytes(after.colors, "little"))
        c = after
        touched = set()
        for v in compress(range(tri.n), diff.to_bytes(tri.n, "little")):
            touched.update(incident[v])
        before = {eid: ns.pop(eid) for eid in touched if eid in ns}
        now = _classify(tri, c.colors, touched)
        # the edges not touched are unchanged, so N(f) shrinks strictly
        # exactly when the touched ones do
        if not now.keys() < before.keys():
            raise AssertionError(
                "surgery failed to strictly shrink the non-singular set: bug")
        ns.update(now)
        for eid, pair in before.items():
            if now.get(eid) != pair:
                walked.pop(pair, None)
                walked.pop(now.get(eid), None)
    raise AssertionError("reduction exceeded the |E| surgery bound: bug")


def check_ns_minimal_structure(tri: Triangulation, c: Coloring) -> dict:
    """Structure report of an NS-minimal coloring.

    For a non-trivial NS-minimal coloring: all six N_ij are single
    non-contractible cycles; N_ij and N_kl are homotopic exactly when
    the pairs are disjoint; the three |algcr| values among {N_12, N_13,
    N_14} coincide; and the degree is 2 (mod 4).  Any violation on a
    certified input is an implementation bug (AssertionError).
    """
    if not tri.is_three_colorable():
        raise ValueError(f"{tri.descriptor()} is not three-colorable")
    if c.q != 4:
        raise ValueError("the structure check expects a 4-coloring")
    cycles = all_ns_cycles(tri, c)
    if all(not cs for cs in cycles.values()):
        return {"trivial": True}
    for pair in PAIRS:
        cs = cycles[pair]
        assert len(cs) == 1, \
            f"N_{pair} has {len(cs)} cycles in an NS-minimal coloring: bug"
        assert not cs[0].contractible, \
            f"N_{pair} is contractible in an NS-minimal coloring: bug"
    hom = {pair: cycles[pair][0].homotopy for pair in PAIRS}
    for p1 in PAIRS:
        for p2 in PAIRS:
            if p1 >= p2:
                continue
            disjoint = not (set(p1) & set(p2))
            assert (hom[p1] == hom[p2]) == disjoint, (
                f"homotopy pattern violated for {p1} vs {p2}: "
                f"{hom[p1]} vs {hom[p2]}: bug")
    crossings = {abs(algcr(hom[(1, 2)], hom[(1, 3)])),
                 abs(algcr(hom[(1, 2)], hom[(1, 4)])),
                 abs(algcr(hom[(1, 3)], hom[(1, 4)]))}
    assert len(crossings) == 1, \
        f"pairwise |algcr| values differ: {crossings}: bug"
    rep = degree(tri, c)
    assert rep.mod4 == 2, \
        f"NS-minimal degree {rep.degree} is not 2 (mod 4): bug"
    return {"trivial": False,
            "homotopy": {p: hom[p] for p in PAIRS},
            "cycle_lengths": {p: len(cycles[p][0].vertices) for p in PAIRS},
            "algcr_abs": crossings.pop(),
            "degree": rep.degree,
            "degree_mod4": rep.mod4}

"""Non-singular edge structure of 4-colorings.

An edge xy with flanking triangles xyz and xyw is singular when z and w
receive the same color and non-singular otherwise; classify_edges is the
only code that applies this rule.  For each unordered color pair {i,j},
the non-singular edges whose endpoints are colored i and j form N_ij, a
disjoint union of cycles; every cycle has a homotopy type (a,b) on the
torus (winding numbers along the periods (r,0) and (-t,s), read by
Triangulation.winding) and is contractible iff (a,b) = (0,0).

ns_minimal_reduce eliminates non-singular structure by one surgery: cut
the faces along one contractible N_ij cycle, or along two disjoint
(hence homotopic) cycles of one N_ij, and swap the two other colors on
one side.  One cycle leaves a disk (Euler characteristic chi = 1) and a
punctured torus (chi = -1), two cycles leave two cylinders (chi = 0);
the disk, or the smaller cylinder, is swapped.  A side with I interior
vertices and F faces, cut along cycles of B vertices in all, has B
boundary edges and (3F - B)/2 interior ones, so chi = I + (B - F)/2.
Each surgery is a set of Kempe changes, strictly shrinks N(f), and
never creates non-singular edges outside the previous N(f); the loop
stops when every nonempty N_ij is a single non-contractible cycle (an
NS-minimal coloring).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def classify_edges(tri: Triangulation, c: Coloring) -> dict:
    """Bucket the non-singular edges by color pair: {(i, j): ascending ids}."""
    check_torus(tri, c)
    buckets: dict[tuple[int, int], list[int]] = {p: [] for p in PAIRS}
    col = c.colors
    for eid, (u, v, z, w) in enumerate(tri.edges):
        if col[z] != col[w]:
            a, b = col[u], col[v]
            buckets[(a, b) if a < b else (b, a)].append(eid)
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


def _face_components(tri: Triangulation, cut_edges: set) -> list[list[int]]:
    """Components of the face-adjacency graph after cutting along edges."""
    seen = [False] * len(tri.faces)
    comps = []
    for f0 in range(len(tri.faces)):
        if seen[f0]:
            continue
        comp = []
        stack = [f0]
        seen[f0] = True
        while stack:
            f = stack.pop()
            comp.append(f)
            for g, eid in tri.face_adjacency[f]:
                if eid not in cut_edges and not seen[g]:
                    seen[g] = True
                    stack.append(g)
        comps.append(comp)
    return comps


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
    cut = {e for cy in cycles for e in cy.edges}
    boundary = sum(1 << v for v in {v for cy in cycles for v in cy.vertices})
    comps = _face_components(tri, cut)
    if len(comps) != 2:
        raise AssertionError(
            f"{len(cycles)} N_ij cycle(s) split faces into {len(comps)} "
            "regions: bug")
    sides = []
    for faces in comps:
        interior = ~boundary & sum(
            1 << v for v in {v for f in faces for v in tri.faces[f]})
        # every boundary vertex and edge lies on both sides
        chi = interior.bit_count() + (boundary.bit_count() - len(faces)) // 2
        sides.append((-chi, len(faces), min(faces), interior))
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
    log: list[KempeMove] = []
    prev_ns = None
    for _ in range(len(tri.edges) + 1):
        buckets = classify_edges(tri, c)
        current = {e for es in buckets.values() for e in es}
        if prev_ns is not None:
            if not current < prev_ns:
                raise AssertionError(
                    "surgery failed to strictly shrink the non-singular set: bug")
        prev_ns = current
        surgery = None
        for pair in PAIRS:
            cycles = _cycles(tri, pair, buckets[pair])
            contractible = [cy for cy in cycles if cy.contractible]
            if contractible:
                surgery = contractible[:1]
                break
            if len(cycles) >= 2 and surgery is None:
                surgery = cycles[:2]
                # keep scanning: a contractible cycle elsewhere takes priority
        if surgery is None:
            return c, log
        c, moves = _surgery(tri, c, surgery)
        log.extend(moves)
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

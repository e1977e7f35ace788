"""Kempe components, Kempe changes, and the zero-temperature WSK step.

RNG contract: wsk_step consumes exactly one pair draw plus one coin per
Kempe component, with components visited in least-vertex order, so a
seeded random.Random reproduces trajectories across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Coloring
from .lattice import Triangulation


@dataclass(frozen=True)
class KempeMove:
    a: int
    b: int
    component: frozenset  # one connected component of the induced subgraph

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("a Kempe move needs two distinct colors")


def kempe_components(tri: Triangulation, c: Coloring, a: int, b: int
                     ) -> list[frozenset]:
    """Connected components of the subgraph induced by colors {a, b}.

    Flood fill; the result is ordered by least vertex index.
    """
    if a == b:
        raise ValueError("colors must be distinct")
    colors = c.colors
    in_ab = [colors[v] == a or colors[v] == b for v in range(tri.n)]
    seen = [False] * tri.n
    comps = []
    for v in range(tri.n):
        if not in_ab[v] or seen[v]:
            continue
        comp = []
        stack = [v]
        seen[v] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in tri.neighbors[u]:
                if in_ab[w] and not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def swap(c: Coloring, a: int, b: int, comps) -> Coloring:
    """Swap colors a,b on every vertex of the given K-components."""
    out = bytearray(c.colors)
    for comp in comps:
        for v in comp:
            out[v] = b if out[v] == a else a
    return c.with_colors(out)


def kempe_change(tri: Triangulation, c: Coloring, move: KempeMove) -> Coloring:
    """Swap colors a,b on one K-component; an involution, preserves properness."""
    comps = kempe_components(tri, c, move.a, move.b)
    if move.component not in comps:
        raise ValueError(
            f"component is not a K-component of the coloring for pair "
            f"({move.a},{move.b})")
    return swap(c, move.a, move.b, [move.component])


def apply_moves(tri: Triangulation, c: Coloring, moves) -> Coloring:
    for move in moves:
        c = kempe_change(tri, c, move)
    return c


def wsk_step(tri: Triangulation, c: Coloring, rng) -> Coloring:
    """One zero-temperature WSK move.

    Draw a color pair uniformly at random, then independently swap each
    Kempe component of that pair with probability 1/2.
    """
    pairs = [(a, b) for a in range(1, c.q + 1) for b in range(a + 1, c.q + 1)]
    a, b = pairs[rng.randrange(len(pairs))]
    return swap(c, a, b, [comp for comp in kempe_components(tri, c, a, b)
                          if rng.random() < 0.5])


def wsk_trajectory(tri: Triangulation, c: Coloring, steps: int, rng):
    """Yield the coloring after each of `steps` WSK moves (start excluded)."""
    for _ in range(steps):
        c = wsk_step(tri, c, rng)
        yield c

"""Kempe components, Kempe changes, and the zero-temperature WSK step.

A Kempe component is a vertex mask, bit v being vertex v, and
`components` is the library's one search for them: WSK steps, Kempe
changes, NS surgeries and the class search all call it.

RNG contract: wsk_step consumes exactly one pair draw plus one coin per
Kempe component, with components visited in least-vertex order, so a
seeded random.Random reproduces trajectories across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .coloring import Coloring, check_torus
from .lattice import Triangulation


@dataclass(frozen=True)
class KempeMove:
    a: int
    b: int
    component: int  # vertex mask of one component of the induced subgraph

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("a Kempe move needs two distinct colors")


def components(tri: Triangulation, region: int) -> list[int]:
    """Connected components of a vertex mask, least vertex first; each
    grows from its least vertex, popping one vertex at a time off a to-do
    mask and adding its neighbour mask, so every vertex is visited once."""
    nbrs = tri.neighbor_masks
    comps = []
    rest = region
    while rest:
        before = rest
        todo = rest & -rest
        rest ^= todo
        while todo:
            bit = todo & -todo
            new = nbrs[bit.bit_length() - 1] & rest
            rest ^= new
            todo ^= bit | new  # new lay in rest, so never in todo
        comps.append(before ^ rest)
    return comps


def color_digits(*colors: int) -> bytes:
    """Translation of colors to binary digits: b"1" for these, else b"0".
    A color past 255 is in no byte, so it is left out of the cache key."""
    if max(colors) > 255:
        colors = [c for c in colors if c < 256]
    return _digits(*colors)


@lru_cache(maxsize=None)
def _digits(*colors: int) -> bytes:
    return bytes(49 if i in colors else 48 for i in range(256))


_BYTES = bytes.maketrans(b"01", b"\0\1")  # binary digits to bytes 0 and 1


def kempe_components(tri: Triangulation, c: Coloring, a: int, b: int
                     ) -> list[int]:
    """Vertex masks of the components colored {a, b}, least vertex first."""
    if a == b:
        raise ValueError("colors must be distinct")
    check_torus(tri, c)
    # vertex 0 is the least significant digit
    region = int(c.colors[::-1].translate(color_digits(a, b)), 2)
    return components(tri, region)


def swap(c: Coloring, a: int, b: int, comps) -> Coloring:
    """Swap colors a,b on every vertex of the given K-components: their
    union, spread to one byte per vertex (1 on it, 0 off it) and times
    a ^ b, is xor-ed into the colors as one integer."""
    flip = 0
    for comp in comps:
        flip |= comp
    n = c.tri.n
    # binary digits put vertex n - 1 first, hence big-endian
    spread = int.from_bytes(format(flip, f"0{n}b").encode().translate(_BYTES),
                            "big")
    colors = int.from_bytes(c.colors, "little") ^ spread * (a ^ b)
    return c.with_colors(colors.to_bytes(n, "little"))


def kempe_change(tri: Triangulation, c: Coloring, move: KempeMove) -> Coloring:
    """Swap colors a,b on one K-component; an involution, preserves properness."""
    if move.component not in kempe_components(tri, c, move.a, move.b):
        raise ValueError(
            f"component is not a K-component of the coloring for pair "
            f"({move.a},{move.b})")
    return swap(c, move.a, move.b, [move.component])


def color_pair(q: int, i: int) -> tuple[int, int]:
    """The i-th pair a < b of colors 1..q in lexicographic order, found
    without listing the pairs."""
    # from the end, first color q - k has k pairs: the j-th pair from the
    # end has a = q - 1 - h, h(h + 1)/2 <= j < (h + 1)(h + 2)/2
    j = q * (q - 1) // 2 - 1 - i
    h = (isqrt(8 * j + 1) - 1) // 2
    return q - 1 - h, q - (j - h * (h + 1) // 2)


def wsk_step(tri: Triangulation, c: Coloring, rng) -> Coloring:
    """One zero-temperature WSK move.

    Draw a color pair uniformly at random, then independently swap each
    Kempe component of that pair with probability 1/2.
    """
    a, b = color_pair(c.q, rng.randrange(c.q * (c.q - 1) // 2))
    return swap(c, a, b, [comp for comp in kempe_components(tri, c, a, b)
                          if rng.random() < 0.5])


def wsk_trajectory(tri: Triangulation, c: Coloring, steps: int, rng):
    """Yield the coloring after each of `steps` WSK moves (start excluded)."""
    for _ in range(steps):
        c = wsk_step(tri, c, rng)
        yield c

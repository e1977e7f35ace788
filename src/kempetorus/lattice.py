"""6-regular torus triangulations T(r,s,t).

Vertices live on an r x s grid with coordinates (x, y), 1 <= x <= r,
1 <= y <= s, and are indexed v = (y-1)*r + (x-1).  Every vertex has six
neighbours: east/west, north/south, and the two inclined ones to the
north-east and south-west.  Horizontal wrap is plain; crossing the top
row shifts x by the twist t (the north neighbour of (x, s) is
(x+t mod r, 1)), and the bottom wrap shifts by -t.  `shift` is the only
code that states this wrap: the neighbour table is six shifts of the
vertex ids.

Each unit cell contributes two triangular faces, stored with their
boundary in clockwise order so that degree computations have a fixed
global orientation:

    up   triangle at (x, y): (x,y) -> (x+1,y+1) -> (x+1,y)
    down triangle at (x, y): (x,y) -> (x,y+1)   -> (x+1,y+1)

Face 2v is vertex v's up triangle and face 2v+1 its down triangle.  Edge
d*n + v joins v to its east (d = 0), north (d = 1) or north-east (d = 2)
neighbour.  `shift` reads the color of every vertex's neighbour in one
direction at once, by slicing whole rows, so that properness and degree
are byte operations with no loop over the vertices.  A torus is a value,
equal, hashed and pickled by (r, s, t).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

# direction order: E, W, N, S, NE, SW
DISPLACEMENTS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))


class NotSimpleError(ValueError):
    """Raised when (r,s,t) does not yield a simple 6-regular triangulation."""


@dataclass(frozen=True)
class Triangulation:
    """Frozen triangulation T(r,s,t): `neighbors` is built with it and
    every other table on first read; it is equal, hashed and pickled by
    its parameters."""

    # every shift and Kempe search reads these; the tables go in __dict__
    __slots__ = ("r", "s", "t", "n",
                 "neighbors",  # list of 6-tuples, direction order E,W,N,S,NE,SW
                 "__dict__")

    r: int
    s: int
    t: int

    def __post_init__(self):
        r, s, t = self.r, self.s, self.t
        if r < 1 or s < 1 or not 0 <= t < max(r, 1):
            raise NotSimpleError(f"invalid parameters T({r},{s},{t})")
        object.__setattr__(self, "n", r * s)
        ids = list(range(r * s))
        nbrs = list(zip(*(self.shift(ids, d) for d in range(6))))
        # simplicity: no loops, no parallel edges
        if any(v in row or len(set(row)) != 6 for v, row in enumerate(nbrs)):
            raise NotSimpleError(
                f"T({r},{s},{t}) is not a simple 6-regular triangulation")
        object.__setattr__(self, "neighbors", nbrs)

    def __reduce__(self):
        return Triangulation, (self.r, self.s, self.t)

    @cached_property
    def faces(self) -> list[tuple[int, int, int]]:
        """Vertex triples, clockwise boundary order."""
        return [f for v, (e, _, no, _, ne, _) in enumerate(self.neighbors)
                for f in ((v, ne, e), (v, no, ne))]

    @cached_property
    def edges(self) -> list[tuple[int, int, int, int]]:
        """(u, w, apex1, apex2) with u < w, for each edge."""
        # an E, N or NE edge of v is flanked by apexes (NE, S), (NE, W)
        # or (E, N), the third corners of its two faces
        return [(min(v, row[d]), max(v, row[d]), row[a1], row[a2])
                for d, a1, a2 in ((0, 4, 3), (2, 4, 1), (4, 0, 2))
                for v, row in enumerate(self.neighbors)]

    @cached_property
    def face_adjacency(self) -> list[tuple[tuple[int, int], ...]]:
        """Face id -> 3 (neighbour face id, shared edge id)."""
        # up face 2v meets 2v + 1 across v's NE edge, S's down face across
        # v's E edge and E's down face across E's N edge; down face 2v + 1
        # meets W's up face across v's N edge and N's across N's E edge
        n = self.n
        return [adj for v, (e, w, no, so, _, _) in enumerate(self.neighbors)
                for adj in (((2 * v + 1, 2 * n + v), (2 * so + 1, v),
                             (2 * e + 1, n + e)),
                            ((2 * w, n + v), (2 * v, 2 * n + v), (2 * no, no)))]

    @cached_property
    def neighbor_masks(self) -> list[int]:
        """Mask of vertex v's six neighbours, at index v; n masks of n
        bits are quadratic in n, and only Kempe component searches read
        them."""
        return [sum(1 << w for w in row) for row in self.neighbors]

    @cached_property
    def incident_edges(self) -> list[tuple[int, ...]]:
        """Ids of the edges with vertex v as an end or an apex, at index
        v: the edges whose class recoloring v can change, read only by
        NS-minimal reductions."""
        lists = [[] for _ in range(self.n)]
        for eid, edge in enumerate(self.edges):
            for v in edge:
                lists[v].append(eid)
        return [tuple(es) for es in lists]

    def shift(self, colors, d: int):
        """Item v is the item of `colors` at v's neighbour in direction d.

        d follows the `DISPLACEMENTS` order; `colors` holds one item per
        vertex, as a list (a list comes back) or as bytes (bytes come
        back).  This is the torus's one wrap rule: whole rows are read by
        slicing, E and W turn every row by one, N and S move the rows by
        one and turn the row that wraps round by the twist, and NE and SW
        are N then E and S then W.
        """
        if d >= 4:
            return self.shift(self.shift(colors, d - 2), d - 4)
        r, n, t = self.r, self.n, self.t
        kind = list if isinstance(colors, list) else bytearray
        if d == 0:
            out = kind(colors[1:] + colors[:1])
            out[r - 1::r] = colors[::r]  # the last column wraps to the first
        elif d == 1:
            out = kind(colors[-1:] + colors[:-1])
            out[::r] = colors[r - 1::r]
        elif d == 2:
            # the north neighbour of (x, s) is (x + t, 1)
            out = colors[r:] + colors[t:r] + colors[:t]
        else:
            out = colors[n - t:] + colors[n - r:n - t] + colors[:n - r]
        return out if kind is list else bytes(out)

    def winding(self, dx: int, dy: int) -> tuple[int, int]:
        """Winding numbers (a, b) of a closed walk's total displacement.

        The periods are (r, 0) and (-t, s), since (x, s+1) is (x+t, 1):
        (dx, dy) = a (r, 0) + b (-t, s).  A displacement that is not a
        period raises ValueError.
        """
        b, ry = divmod(dy, self.s)
        a, rx = divmod(dx + b * self.t, self.r)
        if rx or ry:
            raise ValueError(f"({dx},{dy}) is not a period of {self.descriptor()}")
        return a, b

    def vertex(self, x: int, y: int) -> int:
        """Index of the vertex at coordinates (x, y), 1-based."""
        if not (1 <= x <= self.r and 1 <= y <= self.s):
            raise ValueError(f"coordinates ({x},{y}) outside T({self.r},{self.s},{self.t})")
        return (y - 1) * self.r + (x - 1)

    def coords(self, v: int) -> tuple[int, int]:
        return v % self.r + 1, v // self.r + 1

    def is_three_colorable(self) -> bool:
        return is_three_colorable(self.r, self.s, self.t)

    def counter_diagonal(self, j: int) -> list[int]:
        """Vertices of the anti-diagonal Dj, ordered by increasing y.

        Dj is the class x + y = j (mod r); D1 passes through (r, 1).
        """
        if not 1 <= j <= self.r:
            raise ValueError(f"diagonal index {j} out of range 1..{self.r}")
        return [(j - y - 1) % self.r + (y - 1) * self.r for y in range(1, self.s + 1)]

    def descriptor(self) -> str:
        return f"T({self.r},{self.s},{self.t})"


def build(r: int, s: int, t: int = 0) -> Triangulation:
    """Construct T(r,s,t), rejecting parameters that give loops or multi-edges."""
    return Triangulation(r, s, t)


def is_three_colorable(r: int, s: int, t: int = 0) -> bool:
    """Three-colorability criterion: r = 0 (mod 3) and s - t = 0 (mod 3)."""
    return r % 3 == 0 and (s - t) % 3 == 0


def parse_descriptor(text: str) -> Triangulation:
    """Parse the textual form "T(r,s,t)" (twist optional, default 0)."""
    body = text.strip()
    if body.startswith(("T(", "t(")) and body.endswith(")"):
        body = body[2:-1]
    parts = [p.strip() for p in body.split(",")]
    if len(parts) == 2:
        parts.append("0")
    if len(parts) != 3:
        raise ValueError(f"cannot parse triangulation descriptor {text!r}")
    try:
        r, s, t = (int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"cannot parse triangulation descriptor {text!r}") from exc
    return build(r, s, t)

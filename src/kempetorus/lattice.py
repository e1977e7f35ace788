"""6-regular torus triangulations T(r,s,t).

Vertices live on an r x s grid with coordinates (x, y), 1 <= x <= r,
1 <= y <= s, and are indexed v = (y-1)*r + (x-1).  Every vertex has six
neighbours: east/west, north/south, and the two inclined ones to the
north-east and south-west.  Horizontal wrap is plain; crossing the top
row shifts x by the twist t (the north neighbour of (x, s) is
(x+t mod r, 1)), and the bottom wrap shifts by -t.

Each unit cell contributes two triangular faces, stored with their
boundary in clockwise order so that degree computations have a fixed
global orientation:

    up   triangle at (x, y): (x,y) -> (x+1,y+1) -> (x+1,y)
    down triangle at (x, y): (x,y) -> (x,y+1)   -> (x+1,y+1)

Face 2v is vertex v's up triangle and face 2v+1 its down triangle.  Edge
d*n + v joins v to its east (d = 0), north (d = 1) or north-east (d = 2)
neighbour, the order in which `forward_gather` reads them.
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import itemgetter

# direction order: E, W, N, S, NE, SW
DISPLACEMENTS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))


class NotSimpleError(ValueError):
    """Raised when (r,s,t) does not yield a simple 6-regular triangulation."""


class Triangulation:
    """Immutable triangulation T(r,s,t); safe to share between workers."""

    __slots__ = (
        "r", "s", "t", "n",
        "neighbors",        # list of 6-tuples, direction order E,W,N,S,NE,SW
        "neighbor_masks",   # vertex bit 1 << v -> mask of its six neighbours
        "forward_gather",   # colors -> E, then N, then NE neighbour of every vertex
        "faces",            # list of vertex triples, clockwise boundary order
        "corner_gather",    # colors -> 1st, then 2nd, then 3rd corner of every face
        "edges",            # edge d*n + v: v to its E, N, NE neighbour, as
                            # (u, w, apex1, apex2) with u < w
        "face_adjacency",   # face id -> 3 (neighbour face id, shared edge id)
    )

    def __init__(self, r: int, s: int, t: int):
        if r < 1 or s < 1 or not 0 <= t < max(r, 1):
            raise NotSimpleError(f"invalid parameters T({r},{s},{t})")
        self.r, self.s, self.t = r, s, t
        self.n = r * s

        nbrs = []
        for v in range(self.n):
            x, y = v % r + 1, v // r + 1
            nbrs.append(tuple(self._wrap(x + dx, y + dy)
                              for dx, dy in DISPLACEMENTS))
        # simplicity: no loops, no parallel edges
        for v, row in enumerate(nbrs):
            if v in row or len(set(row)) != 6:
                raise NotSimpleError(
                    f"T({r},{s},{t}) is not a simple 6-regular triangulation")
        self.neighbors = nbrs
        self.neighbor_masks = {1 << v: sum(1 << w for w in row)
                               for v, row in enumerate(nbrs)}
        # E, N and NE meet every edge once; n >= 7, so a gather is a tuple
        self.forward_gather = itemgetter(
            *(row[d] for d in (0, 2, 4) for row in nbrs))
        self.faces = [f for v, (e, _, no, _, ne, _) in enumerate(nbrs)
                      for f in ((v, ne, e), (v, no, ne))]
        self.corner_gather = itemgetter(
            *(f[k] for k in range(3) for f in self.faces))
        # an E, N or NE edge of v is flanked by apexes (NE, S), (NE, W)
        # or (E, N), the third corners of its two faces
        self.edges = [(min(v, row[d]), max(v, row[d]), row[a1], row[a2])
                      for d, a1, a2 in ((0, 4, 3), (2, 4, 1), (4, 0, 2))
                      for v, row in enumerate(nbrs)]
        # up face 2v meets 2v + 1 across v's NE edge, S's down face across
        # v's E edge and E's down face across E's N edge; down face 2v + 1
        # meets W's up face across v's N edge and N's across N's E edge
        n = self.n
        self.face_adjacency = [
            adj for v, (e, w, no, so, _, _) in enumerate(nbrs)
            for adj in (((2 * v + 1, 2 * n + v), (2 * so + 1, v),
                         (2 * e + 1, n + e)),
                        ((2 * w, n + v), (2 * v, 2 * n + v), (2 * no, no)))]

    def _wrap(self, x: int, y: int) -> int:
        # a vertical wrap shifts x by +-t; only +-1 row steps occur here
        qy, ry = divmod(y - 1, self.s)
        return (x - 1 + qy * self.t) % self.r + ry * self.r

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

    def to_json(self) -> str:
        """Adjacency and face tables, for debugging."""
        return json.dumps({
            "r": self.r, "s": self.s, "t": self.t,
            "adjacency": [list(row) for row in self.neighbors],
            "faces": [list(f) for f in self.faces],
        })

    def __repr__(self):
        return f"Triangulation({self.r},{self.s},{self.t})"

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and (self.r, self.s, self.t) == (other.r, other.s, other.t))

    def __hash__(self):
        return hash((self.r, self.s, self.t))


@lru_cache(maxsize=None)
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

"""Proper colorings of torus triangulations.

A Coloring is a value type: the triangulation identity, the number of
colors q, and a vertex-indexed assignment with colors 1..q.  Properness
is never cached; it is recomputed or guaranteed by construction.

Two colorings that differ only by a global permutation of the colors are
regarded as the same coloring; ``canonicalize`` picks the representative
whose colors appear in first-appearance order along the vertex index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .lattice import Triangulation, build


class BudgetExceeded(RuntimeError):
    def __init__(self, kind: str, limit):
        super().__init__(f"{kind} budget exceeded (limit {limit})")
        self.kind = kind
        self.limit = limit

    def __reduce__(self):  # pool workers send it back pickled
        return type(self), (self.kind, self.limit)


@dataclass(frozen=True)
class Coloring:
    tri: Triangulation
    q: int
    colors: bytes  # vertex-indexed, values 1..q

    def __post_init__(self):
        if len(self.colors) != self.tri.n:
            raise ValueError(
                f"coloring has {len(self.colors)} entries for "
                f"{self.tri.descriptor()} with {self.tri.n} vertices")
        if self.colors and not all(1 <= c <= self.q for c in self.colors):
            raise ValueError(f"colors must lie in 1..{self.q}")

    def __getitem__(self, v: int) -> int:
        return self.colors[v]

    def get(self, x: int, y: int) -> int:
        return self.colors[self.tri.vertex(x, y)]

    def rows(self) -> list[tuple[int, ...]]:
        r = self.tri.r
        return [tuple(self.colors[y * r:(y + 1) * r]) for y in range(self.tri.s)]

    def with_colors(self, colors) -> "Coloring":
        return Coloring(self.tri, self.q, bytes(colors))


def is_proper(tri: Triangulation, c: Coloring) -> bool:
    """True iff no edge is monochromatic."""
    if len(c.colors) != tri.n:
        raise ValueError("coloring does not match triangulation size")
    col = c.colors
    for v, row in enumerate(tri.neighbors):
        cv = col[v]
        for w in row:
            if w > v and col[w] == cv:
                return False
    return True


def canonicalize(c: Coloring) -> Coloring:
    """Relabel colors by first appearance in vertex-index order.

    Idempotent, and constant on orbits of the global color permutation
    action: canonicalize(pi . c) == canonicalize(c) for every pi.
    """
    perm = {}
    out = bytearray(len(c.colors))
    for i, col in enumerate(c.colors):
        m = perm.get(col)
        if m is None:
            m = perm[col] = len(perm) + 1
        out[i] = m
    return Coloring(c.tri, c.q, bytes(out))


def three_coloring(tri: Triangulation) -> Coloring:
    """The unique proper 3-coloring: color(x,y) = ((x+y-2) mod 3) + 1."""
    if not tri.is_three_colorable():
        raise ValueError(f"{tri.descriptor()} is not three-colorable")
    out = bytearray(tri.n)
    for v in range(tri.n):
        x, y = tri.coords(v)
        out[v] = (x + y - 2) % 3 + 1
    return Coloring(tri, 3, bytes(out))


def nonsingular_coloring(tri: Triangulation) -> Coloring:
    """The parity 4-coloring making every edge non-singular.

    Defined on T(3L,3M,0) with L and M both even: the color of (x,y) is
    determined by (x mod 2, y mod 2) -- 1 for odd/odd, 2 for odd/even,
    3 for even/odd, 4 for even/even.  Every straight cycle (horizontal,
    vertical, or diagonal) is bi-colored.
    """
    r, s, t = tri.r, tri.s, tri.t
    if t != 0 or r % 6 or s % 6:
        raise ValueError(
            f"non-singular coloring does not exist on {tri.descriptor()}: "
            "requires T(3L,3M,0) with L, M both even")
    out = bytearray(tri.n)
    for v in range(tri.n):
        x, y = tri.coords(v)
        out[v] = {(1, 1): 1, (1, 0): 2, (0, 1): 3, (0, 0): 4}[(x % 2, y % 2)]
    return Coloring(tri, 4, bytes(out))


_BLOCK = r"\[(\d+)\]\^(\d+)"


def expand_row_pattern(text: str) -> tuple[int, ...]:
    """Colors of a row pattern such as "12[34]^3 2".

    Grammar: seq := item+ ; item := color | '[' color+ ']' '^' int.
    Whitespace separates tokens (and in particular terminates an
    exponent, so "[34]^3 2" is three repeats followed by the color 2).
    """
    if not re.fullmatch(rf"\s*(?:(?:\d|{_BLOCK})\s*)+", text):
        raise ValueError(f"malformed row pattern {text!r}")
    flat = re.sub(_BLOCK, lambda m: m[1] * int(m[2]), text)
    return tuple(int(ch) for ch in flat if not ch.isspace())


def _row_colors(rows, r: int, s: int, t: int) -> bytes:
    """The colors of T(r,s,t) from s rows of length r (row y=1 first)."""
    rows = [tuple(row) for row in rows]
    if len(rows) != s or any(len(row) != r for row in rows):
        raise ValueError(
            f"need {s} rows of length {r} for T({r},{s},{t}), got "
            f"{[len(row) for row in rows]}")
    return bytes(x for row in rows for x in row)


def coloring_from_rows(tri: Triangulation, rows, q: int = 4) -> Coloring:
    """Assemble a coloring from s rows of length r (row y=1 first)."""
    return Coloring(tri, q, _row_colors(rows, tri.r, tri.s, tri.t))


def random_proper_coloring(tri: Triangulation, q: int, rng) -> Coloring:
    """Uniformly random-ish proper q-coloring via randomized backtracking.

    Not uniform over colorings; used for seeding dynamics and property
    sweeps where only properness matters.  Raises BudgetExceeded when all
    1000 restarts run out of their node budget.
    """
    if q < 4:
        raise ValueError("randomized search is only supported for q >= 4")
    n = tri.n
    # randomized DFS has a heavy-tailed runtime; restarts cure it
    budget = 60 * n
    for _attempt in range(1000):
        colors = bytearray(n)
        stack: list[list[int]] = []  # remaining candidate colors per level
        i = 0
        nodes = 0
        while i < n and nodes <= budget:
            if len(stack) == i:
                used = {colors[w] for w in tri.neighbors[i] if colors[w]}
                cand = [c for c in range(1, q + 1) if c not in used]
                rng.shuffle(cand)
                stack.append(cand)
            if stack[-1]:
                colors[i] = stack[-1].pop()
                nodes += 1
                i += 1
            else:
                stack.pop()
                i -= 1
                if i < 0:  # the whole tree is exhausted within budget
                    raise ValueError(
                        f"{tri.descriptor()} has no proper {q}-coloring")
                colors[i] = 0
        if i == n:
            return Coloring(tri, q, bytes(colors))
    raise BudgetExceeded(f"{tri.descriptor()} random-start restarts", 1000)


# Grid text: header "T r s t q" (q any integer), then exactly s lines of r
# one-digit colors, row y=1 first; blank lines may follow.

def grid_text(c: Coloring) -> str:
    if max(c.colors, default=0) > 9:
        raise ValueError("grid format writes colors 1..9 only, one digit each")
    return "".join([f"T {c.tri.r} {c.tri.s} {c.tri.t} {c.q}\n",
                    *("".join(map(str, row)) + "\n" for row in c.rows())])


def parse_grid(text: str) -> Coloring:
    lines = text.splitlines() or [""]
    header = lines[0].split()
    if len(header) != 5 or header[0] != "T":
        raise ValueError("bad grid header; expected 'T r s t q'")
    r, s, t, q = (int(x) for x in header[1:])
    rows = [line.strip() for line in lines[1:]]
    if any(rows[s:]):
        raise ValueError(f"grid has more rows than the header's s = {s}")
    # the shape is checked before `build`, which costs O(r s) memory
    colors = _row_colors([map(int, row) for row in rows[:s]], r, s, t)
    return Coloring(build(r, s, t), q, colors)


def save_grid(c: Coloring, path) -> None:
    Path(path).write_text(grid_text(c))


def load_grid(path) -> Coloring:
    return parse_grid(Path(path).read_text())

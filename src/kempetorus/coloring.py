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

from .lattice import Triangulation, build


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


_PATTERN_RE = re.compile(r"(\d)|\[(\d+)\]\^(\d+)")


@dataclass(frozen=True)
class RowPattern:
    """A color sequence with repetition groups, e.g. 12[34]^3 2."""

    items: tuple[tuple[tuple[int, ...], int], ...]  # (colors, repeat)

    @property
    def length(self) -> int:
        return sum(len(cs) * rep for cs, rep in self.items)

    def expand(self) -> tuple[int, ...]:
        out = []
        for cs, rep in self.items:
            out.extend(cs * rep)
        return tuple(out)


def parse_row_pattern(text: str) -> RowPattern:
    """Grammar: seq := item+ ; item := color | '[' color+ ']' '^' int.

    Whitespace separates tokens (and in particular terminates an
    exponent, so "[34]^3 2" is three repeats followed by the color 2).
    """
    items = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _PATTERN_RE.match(text, pos)
        if not m:
            raise ValueError(f"malformed row pattern {text!r} at offset {pos}")
        if m.group(1):
            items.append(((int(m.group(1)),), 1))
        else:
            items.append((tuple(int(d) for d in m.group(2)), int(m.group(3))))
        pos = m.end()
    if not items:
        raise ValueError("empty row pattern")
    return RowPattern(tuple(items))


def expand_row_pattern(pattern) -> tuple[int, ...]:
    if isinstance(pattern, str):
        pattern = parse_row_pattern(pattern)
    return pattern.expand()


def coloring_from_rows(tri: Triangulation, rows, q: int = 4) -> Coloring:
    """Assemble a coloring from s rows of length r (row y=1 first)."""
    rows = [expand_row_pattern(row) if isinstance(row, (str, RowPattern)) else tuple(row)
            for row in rows]
    if len(rows) != tri.s or any(len(row) != tri.r for row in rows):
        raise ValueError(
            f"need {tri.s} rows of length {tri.r} for {tri.descriptor()}, got "
            f"{[len(row) for row in rows]}")
    flat = bytearray()
    for row in rows:
        flat.extend(row)
    return Coloring(tri, q, bytes(flat))


def random_proper_coloring(tri: Triangulation, q: int, rng) -> Coloring:
    """Uniformly random-ish proper q-coloring via randomized backtracking.

    Not uniform over colorings; used for seeding dynamics and property
    sweeps where only properness matters.
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
    raise RuntimeError(f"found no proper {q}-coloring of {tri.descriptor()}")


# Grid file format: header "T r s t q", then s lines of r digits, row y=1 first.

def write_grid(c: Coloring, fh) -> None:
    if c.q > 9:
        raise ValueError("grid format supports q <= 9")
    fh.write(f"T {c.tri.r} {c.tri.s} {c.tri.t} {c.q}\n")
    for row in c.rows():
        fh.write("".join(str(x) for x in row) + "\n")


def read_grid(fh) -> Coloring:
    header = fh.readline().split()
    if len(header) != 5 or header[0] != "T":
        raise ValueError("bad grid header; expected 'T r s t q'")
    r, s, t, q = (int(x) for x in header[1:])
    tri = build(r, s, t)
    flat = bytearray()
    for y in range(s):
        line = fh.readline().strip()
        if len(line) != r:
            raise ValueError(f"grid row {y + 1} has length {len(line)}, expected {r}")
        flat.extend(int(ch) for ch in line)
    return Coloring(tri, q, bytes(flat))


def save_grid(c: Coloring, path) -> None:
    with open(path, "w") as fh:
        write_grid(c, fh)


def load_grid(path) -> Coloring:
    with open(path) as fh:
        return read_grid(fh)

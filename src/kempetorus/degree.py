"""Topological degree of a 4-coloring and derived invariants.

A proper 4-coloring maps the triangulation onto the boundary of the
tetrahedron on colors {1,2,3,4}.  Scanning all faces, each face whose
colors hit a fixed target triangle contributes +1 when the clockwise
boundary ordering agrees with the target's orientation and -1 when it is
reversed; the degree is the net count and is independent of the target
triangle up to sign conventions.

The global sign is pinned by one fixture: the reference non-singular
coloring of T(6,6) (see fixtures/t66_ns.grid) has degree +18.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Coloring, check_torus, is_proper
from .lattice import Triangulation

# Orientations of the four triangles of the tetrahedron boundary, chosen
# consistently so the signed count agrees for every target.
TARGET_ORIENTATIONS = {
    frozenset({1, 2, 3}): (1, 2, 3),
    frozenset({1, 3, 4}): (1, 3, 4),
    frozenset({1, 2, 4}): (1, 4, 2),
    frozenset({2, 3, 4}): (2, 4, 3),
}


@dataclass(frozen=True)
class DegreeReport:
    p: int            # orientation-preserving faces on the target triangle
    n: int            # orientation-reversing faces
    degree: int       # p - n
    degree_abs: int
    mod2: int
    mod4: int
    mod6: int
    mod12: int


def sign_table(target=(1, 2, 3)) -> list[int]:
    """Sign of a face colored (a,b,c) clockwise, at index (a*5 + b)*5 + c.

    +1 when (a,b,c) is a rotation of the target's orientation, -1 when it
    is a rotation of the reverse, 0 otherwise (a color off the target,
    including 0, or a repeated color).  Its 125 entries cover colors
    0..4, those of a 4-coloring with 0 for an uncolored vertex.
    """
    positive = TARGET_ORIENTATIONS.get(frozenset(target))
    if positive is None:
        raise ValueError(f"target {target} is not a triangle of the tetrahedron")
    x, y, z = positive
    table = [0] * 125
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        table[(a * 5 + b) * 5 + c] = 1
        table[(a * 5 + c) * 5 + b] = -1
    return table


def _sign_bytes(target) -> bytes:
    """`sign_table(target)` as a 256-byte translation: +1 -> 1, -1 -> 2."""
    return bytes(sign % 3 for sign in sign_table(target)).ljust(256, b"\0")


# colors 0..4, where 0 is an uncolored vertex
_SIGN_BYTES = {tset: _sign_bytes(tset) for tset in TARGET_ORIENTATIONS}


def face_degree_counts(tri: Triangulation, colors, target=(1, 2, 3)
                       ) -> tuple[int, int]:
    """(p, n) over all faces.

    Accepts raw color sequences of colors 0..4, one per vertex of `tri`;
    a face containing a 0 (uncolored vertex) counts for neither, as
    partial degrees need.
    """
    # only a bad target misses the cache, and sign_table rejects it
    signs = _SIGN_BYTES.get(frozenset(target)) or _sign_bytes(target)
    if len(colors) != tri.n:
        raise ValueError(f"{len(colors)} colors given for the {tri.n} "
                         f"vertices of {tri.descriptor()}")
    if min(colors) < 0 or max(colors) > 4:
        raise ValueError("face colors must lie in 0..4 (0 = uncolored)")
    # colors are below 5, so each face's (a*5 + b)*5 + c fits in its own
    # byte and the whole sum carries nothing between faces
    m = len(tri.faces)
    corners = bytearray(tri.corner_gather(colors))
    a, b, c = (int.from_bytes(corners[k * m:(k + 1) * m], "little")
               for k in range(3))
    codes = ((a * 5 + b) * 5 + c).to_bytes(m, "little").translate(signs)
    return codes.count(1), codes.count(2)


def partial_degree(tri: Triangulation, colors) -> int:
    p, n = face_degree_counts(tri, colors)
    return p - n


def degree(tri: Triangulation, c: Coloring) -> DegreeReport:
    """Degree report of a proper 4-coloring, against the target (1,2,3)."""
    if c.q != 4:
        raise ValueError("degree is defined for 4-colorings only")
    if not is_proper(tri, c):
        raise ValueError("degree requires a proper coloring")
    p, n = face_degree_counts(tri, c.colors)
    d = p - n
    return DegreeReport(p, n, d, abs(d), d % 2, d % 4, d % 6, d % 12)


def tutte_parity(tri: Triangulation, c: Coloring, a: int) -> int:
    """(sum of vertex degrees over the color class a) mod 2.

    Equals degree mod 2 for every color a; identically 0 on the
    6-regular tori, which is why all their 4-colorings have even degree.
    `c` must be a coloring of `tri`.
    """
    check_torus(tri, c)
    if not 1 <= a <= c.q:
        raise ValueError(f"color {a} out of range 1..{c.q}")
    total = sum(len(tri.neighbors[v]) for v in range(tri.n) if c.colors[v] == a)
    return total % 2


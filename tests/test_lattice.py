import json

import pytest

from kempetorus.lattice import (NotSimpleError, build, is_three_colorable,
                                parse_descriptor)

from oracles import face_incidence, has_three_coloring
from tori import LARGE_TORI, SMALL_TORI


def test_counts_t622():
    tri = build(6, 2, 2)
    assert tri.n == 12
    assert len(tri.faces) == 24


def test_counts_t33():
    tri = build(3, 3, 0)
    assert tri.n == 9
    assert len(tri.faces) == 18


def test_counts_t452():
    tri = build(4, 5, 2)
    assert tri.n == 20
    assert len(tri.faces) == 40


@pytest.mark.parametrize("r,s,t", [(2, 3, 0), (3, 1, 0), (3, 2, 0),
                                   (6, 2, 0), (6, 2, 5), (6, 2, 4), (1, 5, 0)])
def test_degenerate_parameters_rejected(r, s, t):
    with pytest.raises(NotSimpleError):
        build(r, s, t)


def test_six_distinct_neighbors_and_symmetry():
    for (r, s, t) in ((3, 3, 0), (6, 2, 2), (5, 4, 3), (9, 6, 0), (7, 3, 2)):
        tri = build(r, s, t)
        for v, row in enumerate(tri.neighbors):
            assert len(set(row)) == 6
            assert v not in row
            for w in row:
                assert v in tri.neighbors[w]


def test_edges_in_exactly_two_faces_with_opposite_orientation():
    tri = build(6, 4, 1)
    # each edge appears once per incident face; clockwise boundaries mean
    # the shared edge is traversed in opposite directions
    directed = {}
    for fid, (a, b, c) in enumerate(tri.faces):
        for u, w in ((a, b), (b, c), (c, a)):
            assert (u, w) not in directed, "same direction used twice"
            directed[(u, w)] = fid
    assert len(directed) == 2 * len(tri.edges)
    for (u, w) in directed:
        assert (w, u) in directed


def test_edge_table_matches_face_incidence():
    # edge e leaves vertex e % n towards its E, N or NE neighbour (e // n =
    # 0, 1, 2), as the forward gather reads them; endpoints, apexes and face
    # adjacency agree with the edges read off the faces alone
    for tri in SMALL_TORI + LARGE_TORI:
        n = tri.n
        incidence = face_incidence(tri.faces)
        forward = tri.forward_gather(range(n))
        ids = {}
        for e, (u, w, z, y) in enumerate(tri.edges):
            v = e % n
            far = tri.neighbors[v][(0, 2, 4)[e // n]]
            assert forward[e] == far and (u, w) == (min(v, far), max(v, far)), \
                (tri, e)
            assert sorted((z, y)) == sorted(a for _, a in incidence[(u, w)]), \
                (tri, e)
            ids[(u, w)] = e
        assert len(ids) == len(incidence) == 3 * n, tri
        expected = [[] for _ in tri.faces]
        for key, ((f, _), (g, _)) in incidence.items():
            expected[f].append((g, ids[key]))
            expected[g].append((f, ids[key]))
        assert [sorted(adj) for adj in tri.face_adjacency] == \
            [sorted(adj) for adj in expected], tri


def test_euler_characteristic_zero():
    for (r, s, t) in ((3, 3, 0), (6, 6, 0), (5, 4, 2)):
        tri = build(r, s, t)
        v = tri.n
        e = len(tri.edges)
        f = len(tri.faces)
        assert e == 3 * v and f == 2 * v
        assert v - e + f == 0


def test_three_colorability_examples():
    assert is_three_colorable(6, 2, 2)
    assert is_three_colorable(3, 3, 0)
    assert not is_three_colorable(4, 4, 0)


def test_three_colorability_against_search_oracle():
    for r in range(3, 10):
        for s in range(2, 10):
            for t in range(r):
                try:
                    tri = build(r, s, t)
                except NotSimpleError:
                    continue
                assert is_three_colorable(r, s, t) == has_three_coloring(tri), \
                    (r, s, t)


def test_counter_diagonals_partition():
    tri = build(6, 6, 0)
    seen = set()
    for j in range(1, 7):
        d = tri.counter_diagonal(j)
        assert len(d) == 6
        seen.update(d)
    assert seen == set(range(36))


def test_counter_diagonal_anchor_and_order():
    # D1 passes through (r, 1) and is ordered by increasing y
    tri = build(6, 6, 0)
    d1 = [tri.coords(v) for v in tri.counter_diagonal(1)]
    assert d1[0] == (6, 1)
    assert [y for (_, y) in d1] == [1, 2, 3, 4, 5, 6]
    assert all((x + y) % 6 == 1 for (x, y) in d1)


def test_counter_diagonal_out_of_range():
    tri = build(6, 6, 0)
    with pytest.raises(ValueError):
        tri.counter_diagonal(0)
    with pytest.raises(ValueError):
        tri.counter_diagonal(7)


def test_twist_wrap_direction():
    # north neighbour of (x, s) is (x + t mod r, 1)
    tri = build(6, 2, 2)
    v = tri.vertex(1, 2)
    north = tri.neighbors[v][2]  # direction order E,W,N,S,NE,SW
    assert tri.coords(north) == (3, 1)
    ne = tri.neighbors[v][4]
    assert tri.coords(ne) == (4, 1)


def test_winding_uses_the_twisted_period():
    # the periods of T(6,2,2) are (6, 0) and (-2, 2)
    tri = build(6, 2, 2)
    assert tri.winding(6, 0) == (1, 0)
    assert tri.winding(-2, 2) == (0, 1)
    assert tri.winding(0, 6) == (1, 3)
    assert tri.winding(-2, -4) == (-1, -2)
    for dx, dy in ((2, 2), (0, 3), (1, 0)):
        with pytest.raises(ValueError):
            tri.winding(dx, dy)


def test_json_dump_roundtrips():
    tri = build(4, 4, 1)
    data = json.loads(tri.to_json())
    assert data["r"] == 4 and data["s"] == 4 and data["t"] == 1
    assert data["adjacency"] == [list(row) for row in tri.neighbors]
    assert data["faces"] == [list(f) for f in tri.faces]


def test_parse_descriptor():
    assert parse_descriptor("T(6,6,0)").descriptor() == "T(6,6,0)"
    assert parse_descriptor("T(9,6)").t == 0
    assert parse_descriptor(" 5 , 4 , 2 ").descriptor() == "T(5,4,2)"
    with pytest.raises(ValueError):
        parse_descriptor("T(a,b)")

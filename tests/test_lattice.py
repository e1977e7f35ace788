import json
import pickle
import random
import tracemalloc

import pytest

from kempetorus.cli import main
from kempetorus.kempe import components
from kempetorus.lattice import (NotSimpleError, Triangulation, build,
                                is_three_colorable, parse_descriptor)

from oracles import face_incidence, has_three_coloring, torus_neighbors
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


def test_not_simple_exactly_where_the_oracle_has_a_loop_or_a_repeat():
    for r in range(1, 17):
        for s in range(1, 16 // r + 1):
            for t in range(r):
                rows = torus_neighbors(r, s, t)
                simple = all(v not in row and len(set(row)) == 6
                             for v, row in enumerate(rows))
                if simple:
                    build(r, s, t)
                else:
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
    # 0, 1, 2), whose id `shift` reads in two bytes (n reaches 729);
    # endpoints, apexes and face adjacency agree with the edges read off
    # the faces alone
    for tri in SMALL_TORI + LARGE_TORI:
        n = tri.n
        incidence = face_incidence(tri.faces)
        low, high = bytes(v & 255 for v in range(n)), bytes(v >> 8 for v in range(n))
        forward = [lo | hi << 8 for d in (0, 2, 4)
                   for lo, hi in zip(tri.shift(low, d), tri.shift(high, d))]
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


def test_shift_and_face_corners_read_the_neighbours():
    # one-row and twisted tori included: the wrap rows are where a
    # row-slicing shift can go wrong
    rng = random.Random(3)
    for tri in SMALL_TORI + LARGE_TORI:
        # `neighbors` is six shifts of the vertex ids, so it is checked
        # against the table the oracle reads off the coordinates
        assert [list(row) for row in tri.neighbors] == \
            torus_neighbors(tri.r, tri.s, tri.t), tri
        colors = bytes(rng.choices(range(256), k=tri.n))
        for d in range(6):
            got = tri.shift(colors, d)
            assert got == bytes(colors[row[d]] for row in tri.neighbors), \
                (tri, d)
        # face 2v is v's up face and 2v + 1 its down face
        up, down = colors, colors[::-1]
        want = [0] * tri.n
        for f, corners in enumerate(tri.faces):
            for v in corners:
                want[v] |= (down if f % 2 else up)[f // 2]
        assert tri.face_corners(up, down) == bytes(want), tri


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


def test_json_dump_roundtrips(capsys):
    # `kempetorus build` dumps the torus's tables as JSON
    tri = build(4, 4, 1)
    assert main(["build", "--tri", "T(4,4,1)"]) == 0
    data = json.loads(capsys.readouterr().out)["payload"]
    assert (data["r"], data["s"], data["t"]) == (4, 4, 1)
    assert data["adjacency"] == [list(row) for row in tri.neighbors]
    assert data["faces"] == [list(f) for f in tri.faces]


def test_construction_leaves_out_the_neighbor_masks():
    # n masks of n bits would peak near 273 MB here; the rest of the
    # torus is linear in n
    tracemalloc.start()
    try:
        Triangulation(200, 200, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


def test_neighbor_masks_are_built_by_the_first_kempe_search():
    tri = Triangulation(6, 4, 1)
    assert vars(tri) == {}
    assert components(tri, (1 << tri.n) - 1) == [(1 << tri.n) - 1]
    assert vars(tri) == {"neighbor_masks": [
        sum(1 << w for w in row) for row in tri.neighbors]}


def test_incident_edges_are_the_edges_at_each_vertex():
    for shape in SMALL_TORI + LARGE_TORI:
        tri = Triangulation(shape.r, shape.s, shape.t)
        assert "incident_edges" not in vars(tri)
        want = [set() for _ in range(tri.n)]
        for eid, edge in enumerate(tri.edges):
            for v in edge:
                want[v].add(eid)
        # v ends its six edges and is the apex of the six edges opposite
        # it in its six faces
        assert all(len(es) == 12 for es in want), tri
        assert [sorted(es) for es in tri.incident_edges] == \
            [sorted(es) for es in want], tri


TABLES = ("faces", "edges", "face_adjacency", "neighbor_masks",
          "incident_edges")


def test_tables_are_built_on_first_read():
    # the formulas each table was built by when the torus built them all
    for shape in SMALL_TORI + LARGE_TORI:
        tri = Triangulation(shape.r, shape.s, shape.t)
        assert not set(TABLES) & set(vars(tri)), tri
        n, nbrs = tri.n, tri.neighbors
        faces = [f for v, (e, _, no, _, ne, _) in enumerate(nbrs)
                 for f in ((v, ne, e), (v, no, ne))]
        edges = [(min(v, row[d]), max(v, row[d]), row[a1], row[a2])
                 for d, a1, a2 in ((0, 4, 3), (2, 4, 1), (4, 0, 2))
                 for v, row in enumerate(nbrs)]
        adjacency = [
            adj for v, (e, w, no, so, _, _) in enumerate(nbrs)
            for adj in (((2 * v + 1, 2 * n + v), (2 * so + 1, v),
                         (2 * e + 1, n + e)),
                        ((2 * w, n + v), (2 * v, 2 * n + v), (2 * no, no)))]
        masks = [sum(1 << w for w in row) for row in nbrs]
        incident = [tuple(e for e, edge in enumerate(edges) if v in edge)
                    for v in range(n)]
        for name, want in zip(TABLES,
                              (faces, edges, adjacency, masks, incident)):
            assert getattr(tri, name) == want, (tri, name)
            assert getattr(tri, name) is vars(tri)[name], (tri, name)


def test_a_torus_is_frozen():
    tri = build(6, 6, 0)
    for name, value in (("t", 1), ("n", 7), ("neighbors", [])):
        with pytest.raises(AttributeError):
            setattr(tri, name, value)
    assert build(6, 6, 0) == tri
    assert (tri.descriptor(), tri.n) == ("T(6,6,0)", 36)
    assert tri.neighbors == Triangulation(6, 6, 0).neighbors
    assert tri == Triangulation(6, 6, 0) != Triangulation(6, 6, 1)
    assert hash(tri) == hash(Triangulation(6, 6, 0))


def test_a_torus_pickles_as_its_parameters():
    tri = build(27, 27, 0)
    tri.edges  # a table read does not grow the pickle
    data = pickle.dumps(tri)
    assert len(data) < 100
    back = pickle.loads(data)
    assert back == build(27, 27, 0) and vars(back) == {}
    assert back.neighbors == tri.neighbors


def test_parse_descriptor():
    assert parse_descriptor("T(6,6,0)").descriptor() == "T(6,6,0)"
    assert parse_descriptor("T(9,6)").t == 0
    assert parse_descriptor(" 5 , 4 , 2 ").descriptor() == "T(5,4,2)"
    with pytest.raises(ValueError):
        parse_descriptor("T(a,b)")

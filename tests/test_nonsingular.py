import math
import random

import pytest

from kempetorus import nonsingular
from kempetorus.coloring import (Coloring, canonicalize, nonsingular_coloring,
                                 random_proper_coloring, three_coloring)
from kempetorus.construct import construct_deg6_symmetric
from kempetorus.degree import degree
from kempetorus.fixtures import load_fixture
from kempetorus.kempe import kempe_change, wsk_step
from kempetorus.lattice import NotSimpleError, build
from kempetorus.nonsingular import (PAIRS, NsCycle, _cycle_homotopy, _cycles,
                                    _sides, _surgery, algcr, all_ns_cycles,
                                    check_ns_minimal_structure, classify_edges,
                                    ns_minimal_reduce)

from oracles import cut_sides


def as4(c):
    return Coloring(c.tri, 4, c.colors)


def nonsingular_edges(tri, c):
    return {e for es in classify_edges(tri, c).values() for e in es}


def apply_moves(tri, c, moves):
    """Replay a Kempe move log; each move must be valid where it is made."""
    for move in moves:
        c = kempe_change(tri, c, move)
    return c


def test_nonsingular_coloring_has_no_singular_edges():
    tri = build(6, 6, 0)
    assert nonsingular_edges(tri, nonsingular_coloring(tri)) == set(range(108))


def test_three_coloring_all_singular():
    for (r, s, t) in ((6, 6, 0), (9, 3, 0), (6, 2, 2)):
        tri = build(r, s, t)
        buckets = classify_edges(tri, as4(three_coloring(tri)))
        assert buckets == {pair: [] for pair in PAIRS}


def test_swap_fixture_buckets():
    c = load_fixture("t66_swap_bottom")
    buckets = classify_edges(c.tri, c)
    n12 = buckets[(1, 2)]
    n34 = buckets[(3, 4)]
    assert 0 < len(n12) < len(c.tri.edges)
    assert 0 < len(n34) < len(c.tri.edges)


def test_ns_cycles_of_nonsingular():
    tri = build(6, 6, 0)
    c = nonsingular_coloring(tri)
    every = all_ns_cycles(tri, c)
    for pair in ((1, 2), (3, 4)):
        cycles = every[pair]
        assert len(cycles) == 3
        assert all(len(cy.vertices) == 6 for cy in cycles)
        assert len({cy.homotopy for cy in cycles}) == 1
        assert not any(cy.contractible for cy in cycles)


def test_ns_cycles_alternate_colors_even_length():
    rng = random.Random(13)
    tri = build(6, 6, 0)
    c = random_proper_coloring(tri, 4, rng)
    for pair, cycles in all_ns_cycles(tri, c).items():
        for cy in cycles:
            assert len(cy.vertices) % 2 == 0
            cols = [c.colors[v] for v in cy.vertices]
            assert set(cols) == set(pair)
            assert all(cols[i] != cols[(i + 1) % len(cols)]
                       for i in range(len(cols)))
            # edges[i] joins vertices i and i + 1, cyclically
            vs = cy.vertices
            assert [tuple(tri.edges[e][:2]) for e in cy.edges] == [
                tuple(sorted((vs[i], vs[(i + 1) % len(vs)])))
                for i in range(len(vs))]


def test_ns_cycles_empty_for_three_coloring():
    tri = build(6, 6, 0)
    c = as4(three_coloring(tri))
    for pair, cycles in all_ns_cycles(tri, c).items():
        assert cycles == []


def test_algcr():
    assert algcr((1, 0), (0, 1)) == 1
    assert algcr((1, 0), (5, 7)) == 7
    assert algcr((2, 3), (2, 3)) == 0


def test_reduce_three_coloring_is_noop():
    tri = build(6, 6, 0)
    c = as4(three_coloring(tri))
    reduced, log = ns_minimal_reduce(tri, c)
    assert reduced.colors == c.colors and log == []
    assert check_ns_minimal_structure(tri, reduced) == {"trivial": True}


def test_reduce_nonsingular_to_obstructed_minimal():
    tri = build(6, 6, 0)
    c = nonsingular_coloring(tri)
    reduced, log = ns_minimal_reduce(tri, c)
    report = check_ns_minimal_structure(tri, reduced)
    assert not report["trivial"]
    assert report["degree_mod4"] == 2
    assert degree(tri, reduced).degree_abs in (6, 18)
    # replaying the move log reproduces the reduction
    assert apply_moves(tri, c, log).colors == reduced.colors


def test_reduce_monotone_nonsingular_sets():
    rng = random.Random(42)
    tri = build(6, 6, 0)
    c = as4(three_coloring(tri))
    for _ in range(30):
        c = wsk_step(tri, c, rng)
    before = nonsingular_edges(tri, c)
    reduced, _ = ns_minimal_reduce(tri, c)
    after = nonsingular_edges(tri, reduced)
    assert after <= before


def test_reduce_degree_zero_samples_reach_three_coloring():
    rng = random.Random(7)
    tri = build(6, 6, 0)
    c = as4(three_coloring(tri))
    target = canonicalize(c).colors
    for _ in range(25):
        for _ in range(6):
            c = wsk_step(tri, c, rng)
        reduced, log = ns_minimal_reduce(tri, c)
        assert canonicalize(reduced).colors == target
        assert apply_moves(tri, c, log).colors == reduced.colors


def test_reduce_obstructed_samples_stay_obstructed():
    rng = random.Random(77)
    tri = build(6, 6, 0)
    c = nonsingular_coloring(tri)
    for _ in range(8):
        for _ in range(4):
            c = wsk_step(tri, c, rng)
        reduced, _ = ns_minimal_reduce(tri, c)
        report = check_ns_minimal_structure(tri, reduced)
        assert not report["trivial"]
        assert report["degree_mod4"] == 2


def test_reduce_works_on_t99_witness():
    fx = load_fixture("t99_deg6")
    reduced, _ = ns_minimal_reduce(fx.tri, fx)
    report = check_ns_minimal_structure(fx.tri, reduced)
    assert not report["trivial"]
    assert report["degree_mod4"] == 2


def test_north_cycle_homotopy_on_twisted_tori():
    # (x, s+1) is (x+t, 1), so a straight walk north closes after r/g
    # wraps, g = gcd(r, t), with displacement (0, s r/g), which is
    # (t/g) (r, 0) + (r/g) (-t, s)
    twisted = 0
    for r in range(2, 17):
        for s in range(1, 16 // r + 1):
            for t in range(1, r):
                try:
                    tri = build(r, s, t)
                except NotSimpleError:
                    continue
                walk = [0]
                while (north := tri.neighbors[walk[-1]][2]) != 0:
                    walk.append(north)
                g = math.gcd(r, t)
                assert len(walk) == s * r // g, tri
                assert _cycle_homotopy(tri, walk) == (t // g, r // g), tri
                twisted += 1
    assert twisted > 10
    tri = build(6, 2, 2)
    walk = [0, 6, 2, 8, 4, 10]  # three wraps, displacement (0, 6)
    assert _cycle_homotopy(tri, walk) == (1, 3)


@pytest.mark.parametrize("rst", [(12, 6, 3), (6, 7, 1), (6, 4, 1)])
def test_reduce_twisted_random_starts(rst):
    # the twisted period enters every non-contractible cycle's homotopy
    tri = build(*rst)
    for seed in range(20):
        c = random_proper_coloring(tri, 4, random.Random(seed))
        reduced, log = ns_minimal_reduce(tri, c)
        check_ns_minimal_structure(tri, reduced)
        assert apply_moves(tri, c, log).colors == reduced.colors, seed


def test_reduce_requires_three_colorable():
    tri = build(4, 4, 0)
    c = random_proper_coloring(tri, 4, random.Random(0))
    with pytest.raises(ValueError):
        ns_minimal_reduce(tri, c)


def test_edge_classification_rejects_a_coloring_of_another_torus():
    # T(6,6,3) is 3-colorable with as many vertices as T(6,6,0): a usage
    # error, not a broken structure law
    fx = load_fixture("t66_ns")
    other = build(6, 6, 3)
    for call in (classify_edges, all_ns_cycles, check_ns_minimal_structure):
        with pytest.raises(ValueError,
                           match="T\\(6,6,0\\) given for T\\(6,6,3\\)"):
            call(other, fx)


def test_structure_homotopy_pattern_on_reduced_nonsingular():
    tri = build(6, 6, 0)
    reduced, _ = ns_minimal_reduce(tri, nonsingular_coloring(tri))
    report = check_ns_minimal_structure(tri, reduced)
    hom = report["homotopy"]
    for p1 in hom:
        for p2 in hom:
            if p1 >= p2:
                continue
            disjoint = not (set(p1) & set(p2))
            assert (hom[p1] == hom[p2]) == disjoint


def _reduce_with_side_checks(monkeypatch, tri, c):
    """Reduce `c`, checking both sides of every surgery's cut against the
    oracle's flood fill; returns the number of surgeries."""
    seen = []

    def checked(tri, cycles):
        sides = _sides(tri, cycles)
        cut = {tuple(sorted((cy.vertices[i - 1], v)))
               for cy in cycles for i, v in enumerate(cy.vertices)}
        boundary = {v for cy in cycles for v in cy.vertices}
        want = cut_sides(tri.faces, cut)
        assert len(want) == 2, want
        for (neg_chi, faces, least, interior), (count, first, verts) in zip(
                sides, want):
            inside = verts - boundary
            assert (faces, least) == (count, first)
            assert interior == sum(1 << v for v in inside)
            assert -neg_chi == len(inside) + (len(boundary) - count) // 2
        seen.append(sides)
        return sides

    monkeypatch.setattr(nonsingular, "_sides", checked)
    reduced, log = ns_minimal_reduce(tri, c)
    assert apply_moves(tri, c, log).colors == reduced.colors
    return len(seen)


def _seeded_chain_ends(tri):
    """Ends of seeded 20-step WSK chains from the 3-coloring and, on
    T(3L,3L,0), the degree-6 witness, so that cuts are disks and
    cylinders."""
    starts = [as4(three_coloring(tri))]
    if tri.r == tri.s and tri.t == 0:
        starts.append(construct_deg6_symmetric(tri.r // 3)[0])
    ends = []
    for start in starts:
        for seed in range(3):
            rng = random.Random(seed)
            c = start
            for _ in range(20):
                c = wsk_step(tri, c, rng)
            ends.append(c)
    return ends


CUT_TORI = [(9, 9, 0), (12, 12, 0), (15, 15, 0), (18, 18, 0), (12, 6, 3)]


@pytest.mark.parametrize("rst", CUT_TORI)
def test_surgery_sides_match_the_oracle_flood(monkeypatch, rst):
    tri = build(*rst)
    ends = _seeded_chain_ends(tri)
    surgeries = sum(_reduce_with_side_checks(monkeypatch, tri, c)
                    for c in ends)
    assert surgeries >= len(ends)


@pytest.mark.parametrize("rst", CUT_TORI + [(27, 27, 0)])
def test_walked_buckets_match_a_full_classification(monkeypatch, rst):
    # a surgery re-classifies only the edges it touches, and the cycles of
    # a pair are walked again only when its bucket changed; every bucket
    # walked must still be the full classification of the current coloring
    tri = build(*rst)
    current = []
    last_walk = {}

    def checked_surgery(tri, c, cycles):
        assert c.colors == current[-1].colors
        pair = cycles[0].pair
        fresh = _cycles(tri, pair, classify_edges(tri, c)[pair])
        assert all(cy in fresh for cy in cycles)
        after, moves = _surgery(tri, c, cycles)
        current.append(after)
        return after, moves

    def checked_cycles(tri, pair, edge_ids):
        assert edge_ids == classify_edges(tri, current[-1])[pair]
        assert last_walk.get(pair) != edge_ids, f"{pair} walked unchanged"
        last_walk[pair] = edge_ids
        return _cycles(tri, pair, edge_ids)

    monkeypatch.setattr(nonsingular, "_surgery", checked_surgery)
    monkeypatch.setattr(nonsingular, "_cycles", checked_cycles)
    surgeries = 0
    for c in _seeded_chain_ends(tri):
        current[:] = [c]
        last_walk.clear()
        reduced, _ = ns_minimal_reduce(tri, c)
        assert reduced.colors == current[-1].colors
        surgeries += len(current) - 1
    assert surgeries >= 3


def test_a_surgery_that_recolors_nothing_fails_to_shrink(monkeypatch):
    c = load_fixture("t66_ns")
    monkeypatch.setattr(nonsingular, "_surgery",
                        lambda tri, c, cycles: (c, []))
    with pytest.raises(AssertionError, match="failed to strictly shrink"):
        ns_minimal_reduce(c.tri, c)


def test_a_cut_into_more_than_two_regions_is_a_bug():
    # cutting round two faces leaves three regions; cutting round every
    # face leaves 1458, more than a byte can label
    tri = build(27, 27, 0)
    c = as4(three_coloring(tri))

    def around(f):
        return NsCycle((1, 2), tri.faces[f],
                       tuple(eid for _, eid in tri.face_adjacency[f]), (0, 0))

    for faces in ((0, 700), range(len(tri.faces))):
        with pytest.raises(AssertionError,
                           match="split faces into more than 2 regions"):
            _surgery(tri, c, [around(f) for f in faces])


def test_one_cycle_round_two_separate_faces_is_a_bug():
    # not one closed walk, so both sides are flooded to the end and the
    # third region is found
    tri = build(27, 27, 0)
    c = as4(three_coloring(tri))
    edges = tuple(eid for f in (0, 700) for _, eid in tri.face_adjacency[f])
    malformed = NsCycle((1, 2), tri.faces[0] + tri.faces[700], edges, (0, 0))
    with pytest.raises(AssertionError,
                       match="1 N_ij cycle\\(s\\) split faces into more than 2"):
        _surgery(tri, c, [malformed])


def test_one_non_contractible_cycle_leaves_one_region():
    c = load_fixture("t66_ns")
    cycle = all_ns_cycles(c.tri, c)[(1, 2)][0]
    assert not cycle.contractible
    with pytest.raises(AssertionError, match="split faces into 1 regions"):
        _surgery(c.tri, c, [cycle])


class _CountedReads(list):
    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_a_cut_round_one_face_floods_a_few_faces():
    # the flood stops when the smaller side closes, in place of labelling
    # all 1458 faces; each rotation of the walk starts it from another
    # edge, so the one-face side is flooded first or second
    tri = build(27, 27, 0)
    adjacency = _CountedReads(tri.face_adjacency)
    tri.__dict__["face_adjacency"] = adjacency
    edge_id = {tuple(edge[:2]): eid for eid, edge in enumerate(tri.edges)}
    for f in (0, 1, 700, 1457):
        for k in range(3):
            vs = tri.faces[f][k:] + tri.faces[f][:k]
            edges = tuple(edge_id[tuple(sorted((vs[i - 1], vs[i])))]
                          for i in (1, 2, 0))
            adjacency.reads = 0
            sides = _sides(tri, [NsCycle((1, 2), vs, edges, (0, 0))])
            assert adjacency.reads <= 4, (f, k)
            outside = (1 << tri.n) - 1 - sum(1 << v for v in vs)
            assert sorted(sides) == [(-1, 1, f, 0),
                                     (1, 1457, int(f == 0), outside)]


def test_improper_or_five_color_input_raises_value_error():
    tri = build(6, 6, 0)
    ones = Coloring(tri, 4, bytes([1] * tri.n))
    three = as4(three_coloring(tri))
    clash = bytearray(three.colors)
    clash[0] = clash[tri.neighbors[0][0]]
    # a fifth color on one vertex of the 3-coloring keeps it proper and
    # every edge at that vertex singular
    five = bytearray(three.colors)
    five[0] = 5
    for c in (ones, three.with_colors(clash)):
        for call in (classify_edges, check_ns_minimal_structure):
            with pytest.raises(ValueError, match="not proper"):
                call(tri, c)
    with pytest.raises(ValueError, match="colors 1..4"):
        classify_edges(tri, Coloring(tri, 5, bytes(five)))
    for c in (Coloring(tri, 5, bytes(five)),
              random_proper_coloring(tri, 5, random.Random(0))):
        with pytest.raises(ValueError, match="expects a 4-coloring"):
            check_ns_minimal_structure(tri, c)

import math
import random

import pytest

from kempetorus.coloring import (Coloring, canonicalize, nonsingular_coloring,
                                 random_proper_coloring, three_coloring)
from kempetorus.degree import degree
from kempetorus.fixtures import load_fixture
from kempetorus.kempe import kempe_change, wsk_step
from kempetorus.lattice import NotSimpleError, build
from kempetorus.nonsingular import (_cycle_homotopy, algcr, all_ns_cycles,
                                    check_ns_minimal_structure, classify_edges,
                                    ns_cycles, ns_minimal_reduce)


def as4(c):
    return Coloring(c.tri, 4, c.colors)


def apply_moves(tri, c, moves):
    """Replay a Kempe move log; each move must be valid where it is made."""
    for move in moves:
        c = kempe_change(tri, c, move)
    return c


def test_nonsingular_coloring_has_no_singular_edges():
    tri = build(6, 6, 0)
    cls = classify_edges(tri, nonsingular_coloring(tri))
    assert len(cls.singular) == 0
    assert len(cls.all_nonsingular()) == 108


def test_three_coloring_all_singular():
    for (r, s, t) in ((6, 6, 0), (9, 3, 0), (6, 2, 2)):
        tri = build(r, s, t)
        cls = classify_edges(tri, as4(three_coloring(tri)))
        assert len(cls.singular) == len(tri.edges)


def test_swap_fixture_buckets():
    c = load_fixture("t66_swap_bottom")
    cls = classify_edges(c.tri, c)
    n12 = cls.nonsingular[(1, 2)]
    n34 = cls.nonsingular[(3, 4)]
    assert 0 < len(n12) < len(c.tri.edges)
    assert 0 < len(n34) < len(c.tri.edges)


def test_ns_cycles_of_nonsingular():
    tri = build(6, 6, 0)
    c = nonsingular_coloring(tri)
    for pair in ((1, 2), (3, 4)):
        cycles = ns_cycles(tri, c, *pair)
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
    before = set(classify_edges(tri, c).all_nonsingular())
    reduced, _ = ns_minimal_reduce(tri, c)
    after = set(classify_edges(tri, reduced).all_nonsingular())
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
    for call in (classify_edges, all_ns_cycles, check_ns_minimal_structure,
                 lambda tri, c: ns_cycles(tri, c, 1, 2)):
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

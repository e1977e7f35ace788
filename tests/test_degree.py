import random

import pytest

from kempetorus.coloring import (Coloring, nonsingular_coloring,
                                 random_proper_coloring, three_coloring)
from kempetorus.degree import (degree, degree_residue_checks,
                               face_degree_counts, max_degree_bound,
                               tutte_parity)
from kempetorus.fixtures import load_fixture
from kempetorus.lattice import build

from oracles import naive_degree

TARGETS = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


def as4(c):
    return Coloring(c.tri, 4, c.colors)


def test_three_coloring_degree_zero():
    tri = build(9, 9, 0)
    assert degree(tri, as4(three_coloring(tri))).degree == 0


def test_nonsingular_degree_18():
    tri = build(6, 6, 0)
    assert degree(tri, nonsingular_coloring(tri)).degree_abs == 18


def test_sign_anchor_reference_fixture():
    # the reference non-singular coloring is the +18 sign anchor
    fx = load_fixture("t66_ns")
    assert degree(fx.tri, fx).degree == +18


def test_swap_fixtures_have_degree_6():
    for name in ("t66_swap_bottom", "t66_swap_row2", "t66_swap_row4"):
        fx = load_fixture(name)
        assert degree(fx.tri, fx).degree_abs == 6, name


def test_t622_nonsingular_degree():
    fx = load_fixture("t622_ns")
    assert degree(fx.tri, fx).degree_abs == len(fx.tri.faces) // 4


def test_degree_report_fields():
    fx = load_fixture("t66_swap_bottom")
    rep = degree(fx.tri, fx)
    assert rep.degree == rep.p - rep.n
    assert rep.degree_abs == abs(rep.degree)
    assert (rep.mod2, rep.mod4, rep.mod6, rep.mod12) == (
        rep.degree % 2, rep.degree % 4, rep.degree % 6, rep.degree % 12)


def test_degree_rejects_bad_input():
    tri = build(6, 6, 0)
    with pytest.raises(ValueError):
        degree(tri, three_coloring(tri))          # q = 3
    with pytest.raises(ValueError):
        degree(tri, Coloring(tri, 4, bytes([1] * 36)))  # improper


def test_degree_matches_naive_oracle():
    rng = random.Random(11)
    for (r, s, t) in ((3, 3, 0), (6, 3, 0), (5, 4, 2), (6, 6, 0)):
        tri = build(r, s, t)
        for _ in range(10):
            c = random_proper_coloring(tri, 4, rng)
            want = naive_degree(tri, c.colors)
            assert degree(tri, c).degree == want
            for target in TARGETS:
                p, n = face_degree_counts(tri, c.colors, target)
                assert p - n == want, target
            # uncolored vertices (0) take their faces out of the count
            partial = bytearray(c.colors)
            for v in rng.sample(range(tri.n), tri.n // 3):
                partial[v] = 0
            p, n = face_degree_counts(tri, partial)
            assert p - n == naive_degree(tri, partial)
    bad = bytearray(c.colors)
    bad[0] = 5
    with pytest.raises(ValueError):
        face_degree_counts(tri, bad)


def test_target_triangle_independence():
    rng = random.Random(5)
    for (r, s, t) in ((3, 3, 0), (6, 3, 0), (5, 4, 2), (4, 4, 0), (6, 2, 2)):
        tri = build(r, s, t)
        for _ in range(20):
            c = random_proper_coloring(tri, 4, rng)
            signed = {degree(tri, c, target).degree for target in TARGETS}
            assert len(signed) == 1  # consistent orientations: equal, not just |.|


def test_orientation_flip_negates_degree():
    # relabeling by an odd permutation reverses the tetrahedron orientation
    fx = load_fixture("t66_ns")
    swapped = fx.with_colors(bytes({1: 2, 2: 1}.get(c, c) for c in fx.colors))
    assert degree(fx.tri, swapped).degree == -degree(fx.tri, fx).degree


def test_surface_orientation_flip_negates_degree():
    # traversing every face boundary counterclockwise swaps p and n
    rng = random.Random(14)
    tri = build(6, 6, 0)
    for _ in range(5):
        c = random_proper_coloring(tri, 4, rng)
        rep = degree(tri, c)
        flipped = sum(1 if (c.colors[a], c.colors[cc], c.colors[b])
                      in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1
                      for (a, b, cc) in tri.faces
                      if {c.colors[a], c.colors[b], c.colors[cc]} == {1, 2, 3})
        assert flipped == -rep.degree
        assert abs(flipped) == rep.degree_abs


def test_tutte_parity_identity():
    rng = random.Random(6)
    for (r, s, t) in ((6, 6, 0), (5, 4, 2), (6, 2, 2)):
        tri = build(r, s, t)
        c = random_proper_coloring(tri, 4, rng)
        rep = degree(tri, c)
        for a in (1, 2, 3, 4):
            assert tutte_parity(tri, c, a) == rep.mod2 == 0


def test_tutte_parity_empty_class():
    tri = build(6, 6, 0)
    c = as4(three_coloring(tri))
    assert tutte_parity(tri, c, 4) == 0
    with pytest.raises(ValueError):
        tutte_parity(tri, c, 5)


def test_residue_checks_labels():
    tri = build(6, 6, 0)
    rec = degree_residue_checks(tri, nonsingular_coloring(tri))
    assert rec["mod12"] == 6 and rec["label"] == "obstructed-class"
    rec = degree_residue_checks(tri, as4(three_coloring(tri)))
    assert rec["mod12"] == 0 and rec["label"] == "ergodic-class"
    with pytest.raises(ValueError):
        degree_residue_checks(build(4, 4, 0),
                              random_proper_coloring(build(4, 4, 0), 4,
                                                     random.Random(0)))


def test_max_degree_bound():
    assert max_degree_bound(2) == 18
    assert max_degree_bound(1) == 4
    assert max_degree_bound(3) == 40


def test_partial_degree_skips_uncolored():
    tri = build(6, 6, 0)
    fx = load_fixture("t66_ns")
    partial = bytearray(fx.colors)
    for v in range(12):
        partial[v] = 0
    p, n = face_degree_counts(tri, partial)
    full_p, full_n = face_degree_counts(tri, fx.colors)
    assert p <= full_p and n <= full_n

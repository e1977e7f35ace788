import itertools
import random
import time

import pytest

import kempetorus
from kempetorus.coloring import (BudgetExceeded, Coloring, canonicalize,
                                 coloring_from_rows, expand_row_pattern,
                                 grid_text, is_proper, nonsingular_coloring,
                                 parse_grid, random_proper_coloring,
                                 three_coloring)
from kempetorus.fixtures import NAMES, load_fixture
from kempetorus.lattice import build

from oracles import brute_force_colorings


def test_three_coloring_values_and_properness():
    tri = build(6, 6, 0)
    c = three_coloring(tri)
    assert c.get(1, 1) == 1            # (x+y-2) mod 3 + 1 at (1,1)
    assert c.get(2, 1) == 2
    assert is_proper(tri, c)


def test_three_coloring_proper_on_all_small_tori():
    for r in range(3, 13, 3):
        for s in range(2, 13):
            for t in range(r):
                if r % 3 or (s - t) % 3:
                    continue
                try:
                    tri = build(r, s, t)
                except ValueError:
                    continue
                assert is_proper(tri, three_coloring(tri)), (r, s, t)


def test_three_coloring_requires_three_colorable():
    with pytest.raises(ValueError):
        three_coloring(build(4, 4, 0))


def test_unique_three_coloring_on_t33():
    tri = build(3, 3, 0)
    canon = {canonicalize(Coloring(tri, 3, bytes(cols))).colors
             for cols in brute_force_colorings(tri, 3)}
    assert len(canon) == 1
    assert canonicalize(three_coloring(tri)).colors in canon


def test_is_proper_counterexamples():
    tri = build(3, 3, 0)
    assert not is_proper(tri, Coloring(tri, 4, bytes([1] * 9)))
    with pytest.raises(ValueError):
        is_proper(tri, Coloring(build(6, 3, 0), 4, bytes([1] * 18)))


def test_canonicalize_first_appearance():
    tri = build(3, 3, 0)
    c = Coloring(tri, 4, bytes([2, 3, 2, 1, 3, 4, 1, 2, 4]))
    assert canonicalize(c).colors == bytes([1, 2, 1, 3, 2, 4, 3, 1, 4])


def test_canonicalize_idempotent_and_permutation_invariant():
    tri = build(6, 3, 0)
    rng = random.Random(7)
    for _ in range(20):
        c = random_proper_coloring(tri, 4, rng)
        canon = canonicalize(c)
        assert canonicalize(canon).colors == canon.colors
        for perm in itertools.permutations((1, 2, 3, 4)):
            recolored = c.with_colors(bytes(perm[x - 1] for x in c.colors))
            assert canonicalize(recolored).colors == canon.colors


def test_nonsingular_coloring_values():
    tri = build(6, 6, 0)
    c = nonsingular_coloring(tri)
    assert c.get(1, 1) == 1 and c.get(2, 1) == 3
    assert is_proper(tri, c)
    # straight cycles are bi-colored
    for y in range(1, 7):
        assert len({c.get(x, y) for x in range(1, 7)}) == 2
    for x in range(1, 7):
        assert len({c.get(x, y) for y in range(1, 7)}) == 2


def test_nonsingular_matches_reference_up_to_permutation():
    tri = build(6, 6, 0)
    c = nonsingular_coloring(tri)
    fx = load_fixture("t66_ns")
    assert canonicalize(c).colors == canonicalize(fx).colors


def test_nonsingular_requires_even_halves():
    with pytest.raises(ValueError):
        nonsingular_coloring(build(9, 9, 0))
    with pytest.raises(ValueError):
        nonsingular_coloring(build(6, 9, 0))


def test_row_pattern_worked_example():
    assert expand_row_pattern("12[34]^3 2") == (1, 2, 3, 4, 3, 4, 3, 4, 2)


def test_row_pattern_basics():
    assert expand_row_pattern("[1]^5") == (1, 1, 1, 1, 1)
    assert expand_row_pattern("[1423]^0 9") == (9,)
    assert expand_row_pattern("[34]^2 2") == (3, 4, 3, 4, 2)
    for bad in ("[12^3", "", "  ", "12x", "[]^3", "[12]^"):
        with pytest.raises(ValueError):
            expand_row_pattern(bad)


def test_coloring_from_rows_roundtrip():
    tri = build(6, 6, 0)
    c = three_coloring(tri)
    again = coloring_from_rows(tri, c.rows(), q=3)
    assert again.colors == c.colors


def test_coloring_from_rows_dimension_mismatch():
    tri = build(6, 6, 0)
    with pytest.raises(ValueError):
        coloring_from_rows(tri, [[1, 2, 3]] * 6)
    with pytest.raises(ValueError):
        coloring_from_rows(tri, [[1, 2, 3, 1, 2, 3]] * 5)


def test_grid_roundtrip_bit_exact():
    for name in NAMES:
        c = load_fixture(name)
        text = grid_text(c)
        again = parse_grid(text)
        assert again.colors == c.colors and again.tri == c.tri and again.q == c.q
        assert grid_text(again) == text


def test_grid_rejects_wide_palettes():
    # the header writes any q, but a color above 9 has no one-digit form
    tri = build(3, 3, 0)
    c = Coloring(tri, 12, bytes([1, 2, 3, 2, 3, 1, 3, 1, 10]))
    with pytest.raises(ValueError, match="one digit"):
        grid_text(c)
    c = Coloring(tri, 12, bytes([1, 2, 3, 2, 3, 1, 3, 1, 2]))
    assert parse_grid(grid_text(c)) == c


def test_grid_rows_beyond_header_are_rejected():
    # six rows of T(3,6,0) under a header that says s = 3
    text = grid_text(Coloring(build(3, 6, 0), 4, three_coloring(build(3, 6, 0)).colors))
    with pytest.raises(ValueError, match="more rows than the header's s = 3"):
        parse_grid(text.replace("T 3 6 0 4", "T 3 3 0 4", 1))
    assert parse_grid(text + "\n  \n\n").tri == build(3, 6, 0)
    with pytest.raises(ValueError):
        parse_grid("T 3 6 0 4\n123\n231\n")  # too few rows


def test_grid_shape_is_checked_before_the_torus_is_built(monkeypatch):
    # building T(100000,100000) would take gigabytes for a two-line file
    def no_build(*args):
        raise AssertionError("build called before the shape check")

    monkeypatch.setattr(kempetorus.coloring, "build", no_build)
    with pytest.raises(ValueError, match=r"need 100000 rows of length 100000 "
                       r"for T\(100000,100000,0\), got \[4\]"):
        parse_grid("T 100000 100000 0 4\n1234\n")


def test_fixtures_are_proper():
    for name in ("t66_ns", "t66_swap_bottom", "t66_swap_row2", "t66_swap_row4",
                 "t99_deg6", "t1212_deg6", "t1515_deg6", "t1818_deg6",
                 "t622_ns", "t622_threecolor"):
        c = load_fixture(name)
        assert is_proper(c.tri, c), name


def test_t622_threecolor_is_the_three_coloring():
    c = load_fixture("t622_threecolor")
    assert canonicalize(c).colors == canonicalize(three_coloring(c.tri)).colors


def test_random_proper_coloring_is_proper():
    rng = random.Random(3)
    for (r, s, t) in ((4, 4, 0), (5, 4, 2), (6, 3, 0)):
        tri = build(r, s, t)
        for _ in range(5):
            assert is_proper(tri, random_proper_coloring(tri, 4, rng))


def test_random_proper_coloring_reports_no_coloring():
    # T(7,1,2) is K7: one exhausted search proves it has no 4-coloring
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="no proper 4-coloring"):
        random_proper_coloring(build(7, 1, 2), 4, random.Random(0))
    assert time.perf_counter() - t0 < 0.5


class NoShuffle(random.Random):
    def shuffle(self, x):
        pass


def test_random_proper_coloring_out_of_restarts_is_a_budget_error():
    # unshuffled, every restart repeats one search that runs out of nodes
    with pytest.raises(BudgetExceeded) as info:
        random_proper_coloring(build(9, 6, 0), 4, NoShuffle(0))
    assert isinstance(info.value, RuntimeError)
    assert str(info.value) == (
        "T(9,6,0) random-start restarts budget exceeded (limit 1000)")
    assert (kempetorus.BudgetExceeded is BudgetExceeded
            and kempetorus.statespace.BudgetExceeded is BudgetExceeded)

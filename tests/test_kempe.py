import random
import time
from itertools import combinations

import pytest

from kempetorus import kempe
from kempetorus.coloring import (Coloring, canonicalize, is_proper,
                                 nonsingular_coloring, random_proper_coloring,
                                 three_coloring)
from kempetorus.degree import degree
from kempetorus.fixtures import load_fixture
from kempetorus.kempe import (KempeMove, color_pair, kempe_change,
                              kempe_components, swap, wsk_step)
from kempetorus.lattice import build


def as4(c):
    return Coloring(c.tri, 4, c.colors)


def test_components_cover_two_color_vertices():
    tri = build(3, 3, 0)
    c = as4(three_coloring(tri))
    comps = kempe_components(tri, c, 1, 2)
    assert all(isinstance(comp, int) for comp in comps)  # vertex masks
    assert sum(comps) == sum(1 << v for v in range(tri.n)
                             if c.colors[v] in (1, 2))
    covered = 0
    for comp in comps:
        assert not covered & comp  # disjoint
        covered |= comp


def test_components_of_nonsingular_are_three_hexagons():
    tri = build(6, 6, 0)
    c = nonsingular_coloring(tri)
    for (a, b) in ((1, 2), (3, 4), (1, 3), (2, 4), (1, 4), (2, 3)):
        comps = kempe_components(tri, c, a, b)
        assert len(comps) == 3
        assert all(comp.bit_count() == 6 for comp in comps)


def test_components_of_swap_fixture_mostly_connected():
    c = load_fixture("t66_swap_bottom")
    tri = c.tri
    for (a, b) in ((1, 3), (1, 4), (2, 3), (2, 4)):
        assert len(kempe_components(tri, c, a, b)) == 1


def test_components_ordering_and_errors():
    tri = build(6, 6, 0)
    c = nonsingular_coloring(tri)
    comps = kempe_components(tri, c, 1, 2)
    least = [comp & -comp for comp in comps]
    assert least == sorted(least)
    with pytest.raises(ValueError):
        kempe_components(tri, c, 2, 2)


def test_kempe_change_bottom_row_reaches_swap_fixture():
    tri = build(6, 6, 0)
    fx_ns = load_fixture("t66_ns")
    comps = kempe_components(tri, fx_ns, 1, 2)
    bottom = next(comp for comp in comps if comp & 1)
    moved = kempe_change(tri, fx_ns, KempeMove(1, 2, bottom))
    assert moved.colors == load_fixture("t66_swap_bottom").colors


def test_kempe_change_is_involution_and_proper():
    rng = random.Random(1)
    tri = build(6, 3, 0)
    for _ in range(10):
        c = random_proper_coloring(tri, 4, rng)
        a, b = rng.sample((1, 2, 3, 4), 2)
        comps = kempe_components(tri, c, a, b)
        if not comps:
            continue
        move = KempeMove(a, b, comps[rng.randrange(len(comps))])
        once = kempe_change(tri, c, move)
        assert is_proper(tri, once)
        assert kempe_change(tri, once, move).colors == c.colors


def test_global_pair_swap_is_canonical_identity():
    tri = build(6, 6, 0)
    c = load_fixture("t66_swap_bottom")
    comps = kempe_components(tri, c, 1, 3)
    assert len(comps) == 1
    swapped = kempe_change(tri, c, KempeMove(1, 3, comps[0]))
    assert canonicalize(swapped).colors == canonicalize(c).colors


def test_kempe_change_rejects_bogus_component():
    tri = build(6, 6, 0)
    c = nonsingular_coloring(tri)
    with pytest.raises(ValueError):
        kempe_change(tri, c, KempeMove(1, 2, 0b11))


def test_swap_flips_exactly_the_chosen_components():
    tri = build(6, 6, 0)
    c = nonsingular_coloring(tri)
    comps = kempe_components(tri, c, 1, 4)
    chosen = comps[::2]
    flipped = sum(chosen)
    out = swap(c, 1, 4, chosen)
    for v in range(tri.n):
        want = {1: 4, 4: 1}[c.colors[v]] if flipped >> v & 1 else c.colors[v]
        assert out.colors[v] == want
    assert swap(c, 1, 4, []).colors == c.colors


@pytest.mark.parametrize("t", (1, 2, 3))
def test_kempe_moves_reject_a_coloring_of_another_torus(t):
    # same vertex count, other twist: the neighbours differ, so a move
    # would act on the wrong components
    c = as4(three_coloring(build(9, 9, 0)))
    other = build(9, 9, t)
    with pytest.raises(ValueError, match="coloring of T\\(9,9,0\\)"):
        kempe_components(other, c, 1, 2)
    with pytest.raises(ValueError, match="coloring of T\\(9,9,0\\)"):
        wsk_step(other, c, random.Random(1))
    move = KempeMove(1, 2, kempe_components(c.tri, c, 1, 2)[0])
    with pytest.raises(ValueError, match="coloring of T\\(9,9,0\\)"):
        kempe_change(other, c, move)


def test_wsk_preserves_properness():
    rng = random.Random(99)
    for (r, s, t) in ((6, 6, 0), (5, 4, 2), (6, 2, 2)):
        tri = build(r, s, t)
        c = random_proper_coloring(tri, 4, rng)
        for _ in range(200):
            c = wsk_step(tri, c, rng)
            assert is_proper(tri, c)


def test_wsk_mod12_invariant_short():
    rng = random.Random(4)
    tri = build(9, 9, 0)
    c = as4(three_coloring(tri))
    for _ in range(100):
        c = wsk_step(tri, c, rng)
        assert degree(tri, c).degree % 12 == 0


def test_wsk_parity_invariant_on_twisted_torus():
    # not 3-colorable, so only the parity corollary applies
    rng = random.Random(8)
    tri = build(5, 4, 2)
    c = random_proper_coloring(tri, 4, rng)
    start_parity = degree(tri, c).mod2
    for _ in range(300):
        c = wsk_step(tri, c, rng)
        assert degree(tri, c).mod2 == start_parity == 0


class CountingRandom:
    """Delegating wrapper; subclassing Random would change how randrange
    consumes the stream."""

    def __init__(self, seed):
        self.inner = random.Random(seed)
        self.ranges = 0
        self.coins = 0

    def randrange(self, n):
        self.ranges += 1
        return self.inner.randrange(n)

    def random(self):
        self.coins += 1
        return self.inner.random()

    def getstate(self):
        return self.inner.getstate()


def test_wsk_rng_consumption_contract():
    # exactly one pair draw plus one coin per component, per step
    tri = build(6, 6, 0)
    c = nonsingular_coloring(tri)
    rng = CountingRandom(0)
    pairs = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    for _ in range(50):
        shadow = random.Random()
        shadow.setstate(rng.getstate())
        a, b = pairs[shadow.randrange(6)]
        ncomps = len(kempe_components(tri, c, a, b))
        before = (rng.ranges, rng.coins)
        c = wsk_step(tri, c, rng)
        assert rng.ranges == before[0] + 1
        assert rng.coins == before[1] + ncomps


def test_wsk_deterministic_given_seed():
    tri = build(6, 6, 0)
    c0 = nonsingular_coloring(tri)
    out = []
    for _ in range(2):
        rng = random.Random(12345)
        c = c0
        seq = []
        for _ in range(50):
            c = wsk_step(tri, c, rng)
            seq.append(c.colors)
        out.append(seq)
    assert out[0] == out[1]


def test_color_pair_unranks_the_lexicographic_pairs():
    for q in range(2, 8):
        pairs = list(combinations(range(1, q + 1), 2))
        assert [color_pair(q, i) for i in range(len(pairs))] == pairs, q


def test_wsk_steps_at_a_huge_color_count_list_no_pairs():
    # C(q, 2) is about 5e11 pairs at q = 10**6, more than memory holds
    c = load_fixture("t66_ns")
    c = Coloring(c.tri, 10**6, c.colors)
    rng = random.Random(0)
    t0 = time.perf_counter()
    for _ in range(5):
        c = wsk_step(c.tri, c, rng)
        assert is_proper(c.tri, c)
    assert time.perf_counter() - t0 < 5


def test_wsk_steps_at_a_huge_color_count_keep_the_digit_cache_small():
    # a pair drawn from 10**6 colors seldom has a color below 256, the
    # only colors a Coloring's bytes can hold, and only those are cached
    c = load_fixture("t66_ns")
    c = Coloring(c.tri, 10**6, c.colors)
    rng = random.Random(1)
    before = kempe._digits.cache_info().currsize
    for _ in range(2000):
        c = wsk_step(c.tri, c, rng)
    assert kempe._digits.cache_info().currsize - before <= 5

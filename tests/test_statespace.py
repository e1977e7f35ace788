import collections
import functools
import gc
import itertools
import os
import pathlib
import pickle
import random
import time
import tracemalloc
import types

import pytest

from kempetorus import statespace, verify
from kempetorus.cli import main
from kempetorus.coloring import (Coloring, canonicalize,
                                 random_proper_coloring, three_coloring)
from kempetorus.kempe import (KempeMove, components, kempe_change,
                              kempe_components)
from kempetorus.lattice import build, parse_descriptor
from kempetorus.statespace import (BudgetExceeded, PackedKempe,
                                   canonical_packed, enumerate_colorings,
                                   kempe_classes)

from oracles import (brute_force_colorings, brute_force_count,
                     brute_force_kempe_classes, canonical_abs_census,
                     degree_histogram, first_appearance, torus_neighbors,
                     two_color_components)
from tori import LARGE_TORI, SMALL_TORI


def test_enumeration_matches_brute_force_t33():
    tri = build(3, 3, 0)
    res = enumerate_colorings(tri, 4)
    assert res.total * 24 == brute_force_count(tri, 4)
    canon = {canonicalize(Coloring(tri, 4, bytes(c))).colors
             for c in brute_force_colorings(tri, 4)}
    assert res.total == len(canon)


def test_enumeration_matches_brute_force_t442():
    # T(4,4,2) is twisted and not 3-colorable; the sweep also covers the
    # one-row tori, whose pinned face wraps around the single row
    assert len(SMALL_TORI) == 97 and build(4, 4, 2) in SMALL_TORI
    for tri in SMALL_TORI:
        res = enumerate_colorings(tri, 4)
        assert res.total * 24 == brute_force_count(tri, 4), tri


def test_enumeration_histogram_against_transfer_matrix():
    for (r, s, t) in ((3, 3, 0), (6, 3, 0), (3, 6, 0), (6, 4, 2)):
        res = enumerate_colorings(build(r, s, t), 4)
        assert res.histogram == canonical_abs_census(r, s, t), (r, s, t)


def test_enumeration_q3_unique():
    assert enumerate_colorings(build(6, 6, 0), 3).total == 1
    assert enumerate_colorings(build(4, 4, 0), 3).total == 0


def test_enumeration_q2_empty():
    assert enumerate_colorings(build(3, 3, 0), 2).total == 0


def test_enumeration_q5_orbit_count():
    # face pinning + ascending first use of colors 4,5 counts orbits once;
    # T(3,4,1)'s last row is memoised, keyed by the colors used so far
    for rst in ((3, 3, 0), (3, 4, 1)):
        tri = build(*rst)
        res = enumerate_colorings(tri, 5)
        canon = {canonicalize(Coloring(tri, 5, bytes(c))).colors
                 for c in brute_force_colorings(tri, 5)}
        assert res.total == len(canon), rst


def test_enumeration_q_at_least_n():
    # T(3,3,0) has 9 vertices, so every q >= 9 gives Bell(3)**3 orbits
    for q in (9, 10, 12):
        assert enumerate_colorings(build(3, 3, 0), q).total == 125, q


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_colorings(build(6, 6, 0), 4, budget_nodes=1000)
    # a stored subtree adds its nodes at once and raises as soon as the
    # total passes the budget, long before T(6,9,0)'s 2.6e9 nodes
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        enumerate_colorings(build(6, 9, 0), 4, budget_nodes=10 ** 6)
    assert time.perf_counter() - t0 < 5


def test_enumeration_budget_at_a_huge_color_count():
    # the face signs are summed at q = 4 only, from one 125-entry table,
    # so memory before the budget runs out does not grow with q
    tri = build(16, 16, 0)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            enumerate_colorings(tri, 1000, budget_nodes=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def test_class_search_leaves_no_reference_cycles():
    # a cycle through the DFS would keep every stored state alive until
    # the cyclic collector ran, so memory would grow with the call count
    gc.collect()
    gc.disable()
    try:
        kempe_classes(build(6, 4, 1))
        with pytest.raises(BudgetExceeded):
            enumerate_colorings(build(6, 6, 0), 4, budget_nodes=1000,
                                collect=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_rejects_tori_beyond_the_recursion_limit():
    # the DFS recurses once per vertex, so T(40,40,0) is refused before
    # any work at every thread count; T(30,30,0) still runs to its budget
    for threads in (1, 2):
        for run in (enumerate_colorings, kempe_classes):
            with pytest.raises(ValueError, match="recursive DFS"):
                run(build(40, 40, 0), 4, budget_nodes=5000, threads=threads)
    with pytest.raises(BudgetExceeded):
        enumerate_colorings(build(30, 30, 0), 4, budget_nodes=5000)


def test_budget_exceeded_pickles():
    # a pool worker's budget error reaches the parent pickled
    exc = pickle.loads(pickle.dumps(BudgetExceeded("nodes", 5)))
    assert (exc.kind, exc.limit) == ("nodes", 5)
    assert str(exc) == "nodes budget exceeded (limit 5)"


def _stripe_0_over_budget(tri, q, budget, collect, stripes, stripe):
    # stripe 0 fails at once while stripe 1 is still searching
    if stripe == 0:
        raise BudgetExceeded("nodes", budget)
    time.sleep(1)
    pathlib.Path(os.environ["KEMPETORUS_STRIPE_1_DONE"]).touch()
    return 0, {}, 0, {}


def test_pool_waits_for_every_part(tmp_path, monkeypatch):
    # tearing the pool down under a running worker can hang the parent,
    # so a worker's budget error is raised once every part has returned
    done = tmp_path / "stripe1.done"
    monkeypatch.setenv("KEMPETORUS_STRIPE_1_DONE", str(done))
    monkeypatch.setattr(statespace, "_enum_task", _stripe_0_over_budget)
    with pytest.raises(BudgetExceeded):
        enumerate_colorings(build(6, 5, 2), 4, budget_nodes=10, threads=2)
    assert done.exists()


def test_enumeration_threads_equivalence():
    # T(3,8,2) has 2 first rows, so 3 of its 5 stripes are empty;
    # T(6,2,2) is cut before its last row, which is searched in place;
    # rows from the third on are memoised on T(3,8,2), T(5,7,2) and
    # T(6,4,1)
    cases = {(6, 3, 0): (2,), (9, 3, 0): (2, 3), (9, 3, 3): (2, 3),
             (3, 8, 2): (5,), (6, 2, 2): (2,), (5, 7, 2): (2, 3),
             (6, 4, 1): (2,)}
    for rst, thread_counts in cases.items():
        tri = build(*rst)
        solo = enumerate_colorings(tri, 4, collect=True)
        for threads in thread_counts:
            multi = enumerate_colorings(tri, 4, collect=True, threads=threads)
            assert solo.nodes == multi.nodes, (rst, threads)
            assert solo.total == multi.total, (rst, threads)
            assert solo.histogram == multi.histogram, (rst, threads)
            assert solo.state_degrees == multi.state_degrees, (rst, threads)


@pytest.fixture
def in_process_pool(monkeypatch):
    """Run pool tasks in-process, recording the pool sizes asked for and
    the callables given to `map`."""
    seen = types.SimpleNamespace(requested=[], tasks=[])

    class InProcessPool:
        def __init__(self, processes):
            seen.requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            seen.tasks.append(fn)
            return list(map(fn, items))

    monkeypatch.setattr(statespace.multiprocessing, "Pool", InProcessPool)
    return seen


def test_pool_never_exceeds_the_cpu_count(monkeypatch, in_process_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    tri = build(9, 3, 0)
    solo = enumerate_colorings(tri, 4, collect=True)
    multi = enumerate_colorings(tri, 4, collect=True, threads=8)
    assert in_process_pool.requested == [2]
    assert multi == solo


def test_pool_tasks_carry_the_torus_parameters_not_its_tables(
        in_process_pool):
    # the torus's tables would pickle to kilobytes (187 KB for T(27,27,0))
    tri = build(9, 3, 0)
    solo = enumerate_colorings(tri, 4)
    multi = enumerate_colorings(tri, 4, threads=2)
    [task] = in_process_pool.tasks
    assert len(pickle.dumps(task)) < 1024
    assert (multi.total, multi.histogram) == (solo.total, solo.histogram)


def test_uncolorable_torus_threaded():
    # T(7,1,2) is K7, a one-row torus cut at its leaves: no coloring
    # reaches the cut, yet every part returns a degree map
    dec = kempe_classes(build(7, 1, 2), 4, threads=2)
    assert (dec.total, dec.num_classes) == (0, 0)


def test_enumeration_budget_boundary():
    # the budget outcome is exact at every thread count; a stripe other
    # than 0 counts the nodes above the cut against its budget too.
    # T(8,1,2), a one-row torus, is cut at its leaves; T(9,3,3) and
    # T(6,2,2) are cut before rows searched in place, and T(6,7,1)'s rows
    # from the third on count their stored subtrees.  At q = 5 a stored
    # row is keyed by the colors used too, and with `collect` every
    # visit to a stored row charges the nodes of its first search
    for rst, q, collect, nodes in (
            ((6, 5, 2), 4, False, 215769), ((9, 3, 3), 4, False, 140760),
            ((6, 2, 2), 4, False, 312), ((8, 1, 2), 4, False, 9),
            ((6, 7, 1), 4, False, 23119618), ((3, 5, 2), 5, False, 11571),
            ((3, 8, 2), 4, True, 25585), ((6, 4, 1), 4, True, 21359)):
        tri = build(*rst)
        assert enumerate_colorings(tri, q, collect=collect).nodes == nodes, rst
        for threads in (1, 2, 3):
            res = enumerate_colorings(tri, q, budget_nodes=nodes,
                                      threads=threads, collect=collect)
            assert res.nodes == nodes, (rst, threads)
            with pytest.raises(BudgetExceeded):
                enumerate_colorings(tri, q, budget_nodes=nodes - 1,
                                    threads=threads, collect=collect)


def test_stripes_partition_the_enumeration():
    # in-process, so the sweep reaches empty stripes, K7 (T(7,1,2)) and
    # the one-row tori's wrapped pinned face: the stripes' states are
    # disjoint and together give the one-stripe results
    for tri in SMALL_TORI:
        rst = (tri.r, tri.s, tri.t)
        total, hist, nodes, degs = statespace._enum_task(rst, 4, None, True,
                                                         1, 0)
        for stripes in (2, 3, 4):
            parts = [statespace._enum_task(rst, 4, None, True, stripes, k)
                     for k in range(stripes)]
            assert sum(p[0] for p in parts) == total, (rst, stripes)
            assert sum(p[2] for p in parts) == nodes, (rst, stripes)
            assert sum((collections.Counter(p[1]) for p in parts),
                       collections.Counter()) == hist, (rst, stripes)
            merged = {}
            for p in parts:
                assert not merged.keys() & p[3].keys(), (rst, stripes)
                merged.update(p[3])
            assert merged == degs, (rst, stripes)


def _first_rows(tri, stripes, stripe):
    """The first rows of the colorings that one stripe reaches."""
    rows = set()
    statespace._dfs(tri, 4, None,
                    lambda colors, deg: rows.add(bytes(colors[:tri.r])),
                    stripes, stripe)
    return rows


def test_stripes_split_the_first_rows():
    # each first row goes to one stripe, so no two stripes search below
    # the same one: their sets of first rows at the leaves are disjoint
    # and together give the one-stripe set
    for tri in SMALL_TORI + [build(6, 5, 2), build(9, 3, 3)]:
        whole = _first_rows(tri, 1, 0)
        for stripes in (2, 3, 4):
            merged = set()
            for k in range(stripes):
                rows = _first_rows(tri, stripes, k)
                assert not merged & rows, (tri.descriptor(), stripes, k)
                merged |= rows
            assert merged == whole, (tri.descriptor(), stripes)


@pytest.mark.parametrize("rst, q, total, nodes", [
    ((5, 7, 2), 4, 1085, 214254),
    ((9, 3, 3), 4, 11080, 140760),
    ((6, 4, 1), 4, 3246, 21359),
    ((6, 4, 4), 4, 4776, 26975),
    ((3, 8, 2), 4, 4414, 25585),
    ((6, 6, 0), 4, 305238, 2197199),
    ((3, 4, 1), 5, 412, 1034),
    ((3, 5, 2), 5, 4201, 11571),
    ((6, 7, 1), 4, 3028624, 23119618),
])
def test_enumeration_node_counts(rst, q, total, nodes):
    # the counts of the plain vertex-by-vertex search: a memoised row or
    # subtree adds its stored node count on every visit; q = 5 keys rows
    # by colors used
    res = enumerate_colorings(build(*rst), q)
    assert (res.total, res.nodes) == (total, nodes)


def test_enumeration_rejects_bad_thread_counts():
    for threads in (0, -2):
        with pytest.raises(ValueError):
            enumerate_colorings(build(3, 3, 0), 4, threads=threads)
        with pytest.raises(ValueError):
            kempe_classes(build(3, 3, 0), 4, threads=threads)


def test_packed_engine_neighbors_match_generic_path():
    rng = random.Random(17)
    for (r, s, t), q in itertools.product(
            ((3, 3, 0), (6, 3, 0), (5, 4, 2), (6, 2, 2)), (4, 5)):
        tri = build(r, s, t)
        eng = PackedKempe(tri, q)
        for _ in range(8):
            c = random_proper_coloring(tri, q, rng)
            ref = set()
            for a in range(1, q + 1):
                for b in range(a + 1, q + 1):
                    comps = kempe_components(tri, c, a, b)
                    if len(comps) <= 1:
                        continue
                    for comp in comps:
                        c2 = kempe_change(tri, c, KempeMove(a, b, comp))
                        ref.add(canonical_packed(eng.label_masks(c2.colors),
                                                 tri.n))
            key = canonical_packed(eng.label_masks(c.colors), tri.n)
            assert set(eng.neighbor_keys(key)) == ref, (r, s, t, q)


def test_kempe_components_match_oracle_flood():
    # the mask search, alone and behind kempe_components, against a set
    # flood fill over neighbours rebuilt from (r, s, t), across every
    # twisted wrap.  Uniform random labellings need not be proper, so tori
    # without a proper 4-coloring are covered too; a pair's region then
    # holds about half the vertices, the triangular lattice's site
    # percolation threshold, so its components come in many sizes
    rng = random.Random(29)
    for tri in SMALL_TORI + LARGE_TORI:
        eng = PackedKempe(tri, 4)
        nbrs = torus_neighbors(tri.r, tri.s, tri.t)
        for _ in range(4):
            c = Coloring(tri, 4, bytes(rng.choices(range(1, 5), k=tri.n)))
            masks = eng.label_masks(c.colors)
            for a, b in itertools.combinations(range(4), 2):
                want = [sum(1 << v for v in comp) for comp in
                        two_color_components(nbrs, c.colors, a + 1, b + 1)]
                assert components(tri, masks[a] | masks[b]) == want, (
                    tri.descriptor(), c.colors, a, b)
                assert kempe_components(tri, c, a + 1, b + 1) == want


def test_packed_roundtrip_and_canonical():
    tri = build(6, 6, 0)
    rng = random.Random(23)
    three = three_coloring(tri).colors
    for q in (4, 5):
        eng = PackedKempe(tri, q)
        # colorings with fewer than q colors, labels with gaps included:
        # the masks of unused colors must stay empty in canonical keys
        cs = [Coloring(tri, q, bytes(perm[x - 1] for x in three))
              for perm in ((1, 2, 3), (4, 1, 3), (q, 2, 1))]
        cs += [random_proper_coloring(tri, q, rng) for _ in range(10)]
        for c in cs:
            canon = canonical_packed(eng.label_masks(c.colors), tri.n)
            assert eng.unpack(canon).colors == canonicalize(c).colors


def test_kempe_classes_t33():
    dec = kempe_classes(build(3, 3, 0), 4)
    assert dec.num_classes == 1
    assert dec.classes[0].residue == 0


def test_kempe_classes_t63():
    dec = kempe_classes(build(6, 3, 0), 4)
    assert dec.num_classes == 1
    assert dec.total == enumerate_colorings(build(6, 3, 0), 4).total


def _check_representatives(tri, q, dec, oracle):
    """Each class matches the oracle class of its representative, which is
    that class's state with the least key."""
    eng = PackedKempe(tri, q)
    where = {c: i for i, cls in enumerate(oracle) for c in cls}
    matched = [where[tuple(cls.representative.colors)] for cls in dec.classes]
    assert len(set(matched)) == dec.num_classes == len(oracle), (tri, q)
    for cls, i in zip(dec.classes, matched):
        assert canonicalize(cls.representative) == cls.representative
        # a class has one state per first-appearance relabeling in the
        # labeled class of its representative
        states = set(map(first_appearance, oracle[i]))
        assert cls.size == len(states), (tri, q)
        least = min(canonical_packed(eng.label_masks(c), tri.n)
                    for c in states)
        assert canonical_packed(eng.label_masks(cls.representative.colors),
                                tri.n) == least, (tri, q)


def test_kempe_classes_match_brute_force_oracle():
    def key(hists):
        return sorted(sorted(h.items()) for h in hists)

    for tri in SMALL_TORI:
        dec = kempe_classes(tri, 4)
        oracle = brute_force_kempe_classes(tri)
        # each canonical state stands for its 24 labeled colorings
        labeled = ({d: 24 * cnt for d, cnt in c.degree_abs_counts.items()}
                   for c in dec.classes)
        assert key(labeled) == key(degree_histogram(tri, cls)
                                   for cls in oracle), tri
        _check_representatives(tri, 4, dec, oracle)
        for cls in dec.classes:
            assert (cls.residue is None) != tri.is_three_colorable(), tri
    cases = [(tri, q) for q, max_n in ((3, 10), (5, 9))
             for tri in SMALL_TORI if tri.n <= max_n]
    assert len(cases) == 30
    for tri, q in cases:
        dec = kempe_classes(tri, q)
        _check_representatives(tri, q, dec, brute_force_kempe_classes(tri, q))
        for cls in dec.classes:
            assert cls.residue is None and cls.degree_abs_counts == {}


def test_class_search_expands_each_state_once(monkeypatch):
    expanded = []
    real = PackedKempe.neighbor_keys

    def counted(self, key):
        expanded.append(key)
        return real(self, key)

    monkeypatch.setattr(PackedKempe, "neighbor_keys", counted)
    kempe_classes(build(6, 4, 1), 4)
    assert len(expanded) == len(set(expanded)) == 3246
    expanded.clear()
    dec = kempe_classes(build(3, 3, 0), 5)
    assert len(expanded) == len(set(expanded)) == dec.total


def test_kempe_move_outside_universe_is_a_bug(monkeypatch):
    real = PackedKempe.neighbor_keys
    # keys are never negative, so -1 is no enumerated state
    monkeypatch.setattr(PackedKempe, "neighbor_keys",
                        lambda self, key: real(self, key) + [-1])
    with pytest.raises(AssertionError, match="left the enumerated state"):
        kempe_classes(build(3, 3, 0), 4)
    assert main(["classes", "--tri", "T(3,3,0)"]) == 1


def test_kempe_classes_assert_degree_zero_mod_6(monkeypatch):
    # deg = 0 (mod 6) on 3-colorable tori: an enumeration that shifts
    # every |degree| by 2 keeps each class's residue single, but not 0 or 6
    real = statespace.enumerate_colorings

    def shifted(*args, **kwargs):
        res = real(*args, **kwargs)
        res.state_degrees = {k: d + 2 for k, d in res.state_degrees.items()}
        return res

    monkeypatch.setattr(statespace, "enumerate_colorings", shifted)
    with pytest.raises(AssertionError, match="not 0 or 6"):
        kempe_classes(build(3, 3, 0), 4)
    assert main(["classes", "--tri", "T(3,3,0)"]) == 1


def test_classes_ignore_colors_no_state_can_use():
    # T(3,3,0) has 9 vertices, so colors beyond 10 are never used and
    # never free to swap into; they must cost nothing and change nothing
    tri = build(3, 3, 0)
    few, many = kempe_classes(tri, 10), kempe_classes(tri, 10 ** 6)
    assert few.total == many.total == 125 and few.num_classes == 1
    assert ([(c.size, c.residue, c.representative.colors)
             for c in few.classes]
            == [(c.size, c.residue, c.representative.colors)
                for c in many.classes])
    assert many.classes[0].representative.q == 10 ** 6


def test_kempe_classes_budget():
    # the node budget caps the enumeration, so it bounds every state held
    tri = build(6, 3, 0)
    res = enumerate_colorings(tri, 4)
    assert kempe_classes(tri, 4, budget_nodes=res.nodes).total == res.total
    with pytest.raises(BudgetExceeded):
        kempe_classes(tri, 4, budget_nodes=res.nodes - 1)


def test_kempe_classes_q3():
    dec = kempe_classes(build(6, 6, 0), 3)
    assert dec.num_classes == 1 and dec.total == 1
    assert dec.classes[0].residue is None


def test_class_residues_are_pure():
    # every class carries one degree residue mod 12 (checked internally,
    # but assert the reported labels too)
    dec = kempe_classes(build(3, 6, 0), 4)
    for cls in dec.classes:
        assert {d % 12 for d in cls.degree_abs_counts} == {cls.residue}


def test_histogram_sums_to_total():
    for (r, s, t) in ((3, 3, 0), (6, 3, 0), (5, 4, 2)):
        res = enumerate_colorings(build(r, s, t), 4)
        assert sum(res.histogram.values()) == res.total


def _pinned_censuses():
    """One param per torus pinned by a census row of `verify.CRITERIA`:
    its total and |degree| histogram, summed over the classes of a class
    list.  Tori above 18 vertices are slow for the oracle."""
    params = []
    for cid, _name, _level, check in verify.CRITERIA:
        if getattr(check, "func", None) is not verify._pinned:
            continue
        (answer,) = check.args
        for torus, want in check.keywords["pins"].items():
            if answer is verify._classes:
                total = sum(size for size, _residue, _hist in want)
                hist = collections.Counter()
                for _size, _residue, h in want:
                    hist.update(h)
            else:
                total, hist = want
            slow = parse_descriptor(torus).n > 18
            params.append(pytest.param(
                torus, total, dict(hist), id=f"{cid}-{torus}",
                marks=[pytest.mark.slow] if slow else []))
    return params


def test_pinned_censuses_agree_per_torus():
    # every criterion that pins a torus implies the same total and
    # |degree| histogram for it, so the oracle below checks them all
    implied = {}
    for param in _pinned_censuses():
        torus, *want = param.values
        implied.setdefault(torus, {})[param.id] = tuple(want)
    assert len(implied) < len(_pinned_censuses())
    for torus, pins in implied.items():
        first, *others = pins.values()
        assert all(other == first for other in others), (torus, pins)


@functools.cache
def _oracle_counts(torus):
    """The transfer-matrix census of `torus` and, up to 18 vertices, its
    brute-force labeled count and the DFS's orbit count, computed once
    for every criterion that pins the torus."""
    tri = parse_descriptor(torus)
    census = canonical_abs_census(tri.r, tri.s, tri.t)
    if tri.n > 18:
        return census, None, None
    return (census, brute_force_count(tri, 4),
            enumerate_colorings(tri, 4).total)


@pytest.mark.parametrize("torus,total,histogram", _pinned_censuses())
def test_pinned_census_against_transfer_matrix(torus, total, histogram):
    # every published count the criteria pin, C4's big T(6,9) one
    # included, via the independent transfer-matrix oracle, run once per
    # torus however many criteria pin it; on small tori the pinned total
    # and the DFS's count are also each 1/24 of the brute-force labeled
    # count, as the pinned face counts each orbit of the 24 color
    # permutations once
    census, labeled, orbits = _oracle_counts(torus)
    assert census == histogram
    assert sum(census.values()) == total
    if labeled is not None:
        assert total * 24 == labeled
        assert orbits * 24 == labeled


def test_t69_enumeration_full():
    # C4's census: every row from the third on counts its subtree once per
    # coloring of the row below, and the node count is still the full tree's
    for threads in (1, 2):
        res = enumerate_colorings(build(6, 9, 0), 4, threads=threads)
        assert (res.total, res.histogram, res.nodes) == (
            299146792, {0: 299146792}, 2591788006), threads


def test_count_only_enumeration_matches_the_replay():
    # the subtree histograms against the leaf-by-leaf replay of `collect`,
    # whole and over 1-3 stripes, on every small torus at q = 3, 4 and 5
    for tri in SMALL_TORI:
        rst = (tri.r, tri.s, tri.t)
        for q in (3, 4, 5):
            counted = enumerate_colorings(tri, q)
            replayed = enumerate_colorings(tri, q, collect=True)
            hist = collections.Counter(replayed.state_degrees.values())
            assert (counted.total, counted.nodes) == (
                len(replayed.state_degrees), replayed.nodes), (rst, q)
            if q == 4:
                assert counted.histogram == hist, rst
            for stripes in (1, 2, 3):
                parts = [statespace._enum_task(rst, q, None, False, stripes,
                                               k) for k in range(stripes)]
                assert sum(p[0] for p in parts) == counted.total, (rst, q)
                assert sum(p[2] for p in parts) == counted.nodes, (rst, q)
                assert sum((collections.Counter(p[1]) for p in parts),
                           collections.Counter()) == hist, (rst, q)

import itertools
import os
import pathlib
import pickle
import random
import time

import pytest

from kempetorus import statespace
from kempetorus.cli import main
from kempetorus.coloring import (Coloring, canonicalize, nonsingular_coloring,
                                 random_proper_coloring, three_coloring)
from kempetorus.degree import degree_residue_checks
from kempetorus.fixtures import load_fixture
from kempetorus.kempe import KempeMove, kempe_change, kempe_components
from kempetorus.lattice import NotSimpleError, build
from kempetorus.statespace import (BudgetExceeded, PackedKempe, class_of,
                                   enumerate_colorings, kempe_classes)

from oracles import (brute_force_colorings, brute_force_count,
                     brute_force_kempe_classes, canonical_abs_census,
                     degree_histogram, first_appearance)


def _small_tori(max_n=16):
    """Every torus `build` accepts with at most `max_n` vertices."""
    out = []
    for r in range(1, max_n + 1):
        for s in range(1, max_n // r + 1):
            for t in range(r):
                try:
                    out.append(build(r, s, t))
                except NotSimpleError:
                    pass
    return out


SMALL_TORI = _small_tori()


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
    # face pinning + ascending first use of colors 4,5 counts orbits once
    tri = build(3, 3, 0)
    res = enumerate_colorings(tri, 5)
    canon = {canonicalize(Coloring(tri, 5, bytes(c))).colors
             for c in brute_force_colorings(tri, 5)}
    assert res.total == len(canon)


def test_enumeration_q_at_least_n():
    # T(3,3,0) has 9 vertices, so every q >= 9 gives Bell(3)**3 orbits
    for q in (9, 10, 12):
        assert enumerate_colorings(build(3, 3, 0), q).total == 125, q


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_colorings(build(6, 6, 0), 4, budget_nodes=1000)


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
    # T(3,8,2) is cut into 4 prefixes, so one of its 5 stripes is empty;
    # T(6,2,2) is cut at depth 6, before its pinned vertex (2,2)
    cases = {(6, 3, 0): (2,), (9, 3, 0): (2, 3), (9, 3, 3): (2, 3),
             (3, 8, 2): (5,), (6, 2, 2): (2,)}
    for rst, thread_counts in cases.items():
        tri = build(*rst)
        solo = enumerate_colorings(tri, 4, collect=True)
        for threads in thread_counts:
            multi = enumerate_colorings(tri, 4, collect=True, threads=threads)
            assert solo.nodes == multi.nodes, (rst, threads)
            assert solo.total == multi.total, (rst, threads)
            assert solo.histogram == multi.histogram, (rst, threads)
            assert solo.state_degrees == multi.state_degrees, (rst, threads)


def test_uncolorable_torus_threaded():
    # T(7,1,2) is K7: its 2 prefixes at depth 3 have no proper completion,
    # yet every part returns a degree map
    dec = kempe_classes(build(7, 1, 2), 4, threads=2)
    assert (dec.total, dec.num_classes) == (0, 0)


def test_enumeration_budget_boundary():
    # the budget outcome is exact at every thread count
    tri = build(6, 5, 2)
    nodes = enumerate_colorings(tri, 4).nodes
    assert nodes == 215769
    for threads in (1, 2):
        res = enumerate_colorings(tri, 4, budget_nodes=nodes, threads=threads)
        assert res.nodes == nodes, threads
        with pytest.raises(BudgetExceeded):
            enumerate_colorings(tri, 4, budget_nodes=nodes - 1,
                                threads=threads)


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
                        ref.add(eng.canonical(eng.pack(c2)))
            assert set(eng.neighbor_keys(eng.pack(c))) == ref, (r, s, t, q)


def test_packed_components_match_kempe_components():
    # the mask fill against kempe's flood fill, across every twisted wrap.
    # Uniform random labellings need not be proper, so tori without a
    # proper 4-coloring are covered too; a pair's region then holds about
    # half the vertices, the triangular lattice's site percolation
    # threshold, so its components come in many sizes
    rng = random.Random(29)
    for tri in SMALL_TORI + [build(16, 16, 1), build(12, 6, 3),
                             build(27, 27, 0)]:
        eng = PackedKempe(tri, 4)
        for _ in range(4):
            c = Coloring(tri, 4, bytes(rng.choices(range(1, 5), k=tri.n)))
            masks = eng.label_masks(c.colors)
            for a, b in itertools.combinations(range(4), 2):
                want = [sum(1 << v for v in comp)
                        for comp in kempe_components(tri, c, a + 1, b + 1)]
                assert eng.components(masks[a] | masks[b]) == want, (
                    tri.descriptor(), c.colors, a, b)


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
            packed = eng.pack(c)
            assert eng.unpack(packed).colors == c.colors
            canon = eng.canonical(packed)
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
        least = min(eng.canonical(eng.pack(Coloring(tri, q, bytes(c))))
                    for c in states)
        assert eng.canonical(eng.pack(cls.representative)) == least, (tri, q)


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


def test_kempe_move_outside_universe_is_a_bug(monkeypatch):
    real = PackedKempe.neighbor_keys
    # keys are never negative, so -1 is no enumerated state
    monkeypatch.setattr(PackedKempe, "neighbor_keys",
                        lambda self, key: real(self, key) + [-1])
    with pytest.raises(AssertionError, match="left the enumerated state"):
        kempe_classes(build(3, 3, 0), 4)
    assert main(["classes", "--tri", "T(3,3,0)"]) == 1


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


def test_class_of_residues():
    tri = build(6, 6, 0)
    c0 = Coloring(tri, 4, three_coloring(tri).colors)
    rec = class_of(tri, c0)
    assert rec["residue"] == 0 and rec["label"] == "ergodic-class"
    rec = class_of(tri, nonsingular_coloring(tri))
    assert rec["residue"] == 6 and rec["label"] == "obstructed-class"


def test_class_of_t99_witness():
    from kempetorus.construct import construct_deg6_symmetric
    c, _ = construct_deg6_symmetric(3)
    rec = class_of(c.tri, c)
    assert rec["residue"] == 6 and rec["label"] == "obstructed-class"


def test_class_of_takes_the_residue_rule_from_degree():
    for name in ("t66_ns", "t66_swap_row2", "t99_deg6", "t622_ns"):
        c = load_fixture(name)
        checks = degree_residue_checks(c.tri, c)
        rec = class_of(c.tri, c)
        assert (rec["residue"], rec["label"]) == (checks["mod12"],
                                                  checks["label"])
    tri = build(4, 4, 0)
    c = random_proper_coloring(tri, 4, random.Random(0))
    with pytest.raises(ValueError, match=r"T\(4,4,0\) is not three-colorable"):
        class_of(tri, c)


def test_histogram_sums_to_total():
    for (r, s, t) in ((3, 3, 0), (6, 3, 0), (5, 4, 2)):
        res = enumerate_colorings(build(r, s, t), 4)
        assert sum(res.histogram.values()) == res.total


def test_class_of_certify_small():
    tri = build(3, 3, 0)
    rng = random.Random(2)
    c = random_proper_coloring(tri, 4, rng)
    rec = class_of(tri, c, certify=True)
    assert rec["certified_with_three_coloring"] is True


def test_class_of_certify_obstructed():
    # the non-singular coloring of T(6,6) lies in the 46-state class
    tri = build(6, 6, 0)
    rec = class_of(tri, nonsingular_coloring(tri), certify=True)
    assert rec["certified_with_three_coloring"] is False


@pytest.mark.slow
def test_t66_census_slow():
    res = enumerate_colorings(build(6, 6, 0), 4)
    assert res.total == 305238
    assert res.histogram == {0: 305192, 6: 45, 18: 1}


@pytest.mark.slow
def test_t69_total_against_transfer_matrix_slow():
    # the paper's big count, via the independent transfer-matrix oracle
    census = canonical_abs_census(6, 9, 0)
    assert census == {0: 299146792}


@pytest.mark.full
def test_t69_enumeration_full():
    res = enumerate_colorings(build(6, 9, 0), 4, threads=4)
    assert res.total == 299146792
    assert set(res.histogram) == {0}

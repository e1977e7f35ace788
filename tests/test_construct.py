import hashlib
import random

import pytest

from kempetorus.coloring import (canonicalize, is_proper, nonsingular_coloring,
                                 random_proper_coloring, three_coloring,
                                 coloring_from_rows)
from kempetorus.construct import (build_strip, construct_deg6,
                                  construct_deg6_symmetric, extend_periodic,
                                  glue_strip, strip_rows)
from kempetorus.degree import degree
from kempetorus.fixtures import load_fixture
from kempetorus.lattice import build

EXPECTED_ABS = {2: 18, 3: 6, 4: 6, 5: 6, 6: 6, 7: 18, 8: 18, 9: 18}


@pytest.mark.parametrize("L", sorted(EXPECTED_ABS))
def test_symmetric_witness_degree(L):
    c, trace = construct_deg6_symmetric(L)
    assert c.tri.descriptor() == f"T({3 * L},{3 * L},0)"
    assert is_proper(c.tri, c)
    rep = degree(c.tri, c)
    assert rep.degree_abs == EXPECTED_ABS[L]
    assert rep.degree % 12 == 6
    assert trace[-1].partial_degree == rep.degree


@pytest.mark.parametrize("L,name", [(3, "t99_deg6"), (4, "t1212_deg6"),
                                    (5, "t1515_deg6"), (6, "t1818_deg6")])
def test_witness_equals_reference_figure(L, name):
    c, _ = construct_deg6_symmetric(L)
    fx = load_fixture(name)
    # the construction reproduces the published figures exactly
    assert c.colors == fx.colors


def test_witness_l2_is_nonsingular_coloring():
    c, _ = construct_deg6_symmetric(2)
    assert c.colors == nonsingular_coloring(build(6, 6, 0)).colors
    assert canonicalize(c).colors == canonicalize(load_fixture("t66_ns")).colors


def test_witness_rejects_l1():
    with pytest.raises(ValueError):
        construct_deg6_symmetric(1)


# per-case partial-degree ledgers: (L, checkpoints)
LEDGERS = [
    (3, [4, 4, 4, 2, 6]),            # 4k-1, k=1
    (4, [4, 4, 8, 6, 6]),            # 4k,   k=1
    (5, [8, 8, 8, 4, 6]),            # 4k+1, k=1
    (6, [8, 8, 4, 6]),               # 4k-2, k=2
    (7, [4, 16, 16, 14, 18]),        # 4k-1, k=2
    (8, [4, 16, 20, 18, 18]),        # 4k,   k=2
    (9, [8, 20, 20, 16, 18]),        # 4k+1, k=2
    (10, [8, 20, 16, 18]),           # 4k-2, k=3
    (11, [4, 28, 28, 26, 30]),       # 4k-1, k=3
    (12, [4, 28, 32, 30, 30]),       # 4k,   k=3
    (2, [-18]),                      # the non-singular coloring, one step
]


@pytest.mark.parametrize("L,expected", LEDGERS)
def test_partial_degree_ledger(L, expected):
    _, trace = construct_deg6_symmetric(L)
    assert [e.partial_degree for e in trace] == expected
    # the trace lists each counter-diagonal D1..D3L exactly once
    listed = [j for e in trace for j in e.diagonals]
    assert sorted(listed) == list(range(1, 3 * L + 1))


@pytest.mark.parametrize("L", range(3, 13))
def test_seed_and_sweep_steps_are_mirror_closed(L):
    # the seed and both sweep steps list Dd together with D(M+2-d);
    # D1 is its own mirror, D(M+1) = D1
    M = 3 * L
    _, trace = construct_deg6_symmetric(L)
    steps = {e.label: e.diagonals for e in trace}
    for label in ("step1", "step2"):
        listed = set(steps[label])
        assert listed == {(M + 1 - d) % M + 1 for d in listed}, label
    assert {1, 2, M} <= set(steps["step1"])


# sha256 of the witness grid and its (label, partial degree) trace steps
WITNESS_DIGESTS = {
    2: "5001a46513f3f48c4153313e63c2510ba297aaccb814187eb58c8293c387a77d",
    3: "48b55484822ea09275a7438c13a8719e1dbdc839b81f74f0acadd4dfa3391df4",
    4: "6173a54ce9bd9a26e5a2bbc52d0ca8eaddeaeae8207f1aa83688e43be6d7a6f1",
    5: "9392766762444a66b6817fc7250d3dd03d221f926f885cf66b90a36fe2f6b667",
    6: "25c5d0d300a2db8eff656451dd470a9928e26aaf215224fc17f9a8fb13705c1d",
    7: "a392f541a158d2461bafeb78beb2358cc26e38a75e8ac1aae8de72cc620bce95",
    8: "d8c7ddc2f8d75dd5b6b6258479cb1d744d5f72f60c879356be572ba4503cbee5",
    9: "0724db5d4be8d970530875055e124a9d7b1b086581b015e5eba0aaa841a4dec2",
    10: "feb847c64c6c29a21bac0f7a3a85579afa0885845edb10bafafe13e2908393a4",
    11: "91b4adb3824d7ae13ee9e557c8db928411a1b6852d043ba11437143990ccd0aa",
    12: "67e314556f41117c5e0cc2c26efb82f4229aaca2719c51884f3145650153c2c6",
    13: "8d54ac4e49731ca20587c83e086b653400fbb9b3a0f4880e064bc495b97968d1",
    14: "9004a43052586a759e96940f52227e3e4fadc9630e46ed76b58d42d730809bdd",
    15: "2be6e81106b0d5d50c817dcdec70a144f86bdf6b8772454924e874c15e4366b3",
    16: "2860685a3a67735d06bd3d702f65cce9ea236dcb7740df5df8044d13bf14877d",
    17: "2c1eb853df89366f655bbf1d0a5dc7a9dde40baf14eb71bf6ef977e20049eb4b",
    18: "543c1305a964e9490b6b1900c9c0d395355fbcef3773ff539194bb610c42c15c",
    19: "882dab650464c6e97ee112af434dfd439ef5311896ada7ddcef7fdae2081dc54",
    20: "2acc3172cc0bd3f0faeaba5729a09baf7d3bea9bd37283fa69f85665c495e07a",
}


@pytest.mark.parametrize("L", sorted(WITNESS_DIGESTS))
def test_witness_golden_digest(L):
    c, trace = construct_deg6_symmetric(L)
    steps = [(e.label, e.partial_degree) for e in trace]
    digest = hashlib.sha256(repr((c.colors, steps)).encode()).hexdigest()
    assert digest == WITNESS_DIGESTS[L]


# sha256 of repr(strip_rows(L))
STRIP_DIGESTS = {
    3: "b3f28ce67bb4480b55e3b9097f76eaf13f5886a4ffe52bd96abbfe3e47828354",
    4: "caf45237a118b81cb9731ea65f4934c3b5fc13197a43ef1733c4aa24f35a97df",
    5: "6f3ba1e457d0ebfcbd704a70544f8712cbdf531cfc2d9fa19c415fa8c664528b",
    6: "e64433463e314cf9a7da686c38ba36401990180faabbd092cfee226bc7ca0e5b",
    7: "4a903ca06389bcdbcae88c3e52e9396a86df0015562b1f74f9deebc14eaacb45",
    8: "af1122707d41665b412b0b5adfd345be7a13c952ea12cf6af4ed785afe680fd8",
    9: "04d4126f8bffe0766893c33ea867d8e22d7cd16b60e535578054b1daa3dc20b2",
    10: "ef1a0fd0b4e9ca878f802a93ee69429233c7f0305743c272437f286d00f85057",
    11: "5b2878ad3e91df36a74444f34764b2b8d567e1abd178670f5cbb45bd055132d9",
    12: "714f7f5723037947c8d57ddc8cb338ca60cccce6c354bc06bc0f7fa17cb88575",
    13: "3371e2d5ae75c83b23acc40e2e079424aeef148e6e851c9df2aa2c49376f4768",
    14: "ab2d7a20cfe812c58ddb245c2a069418303ba5993a260f4d5c8b20afcdb4d567",
    15: "1400c699ada1df6e796676bcc59547e5a7cc473333648a22ca1ee203a24eb0c0",
    16: "b628b106c563d957ff09f5a6aad9d87c9bf03e31357926b14a37147b8e4c96ab",
}


@pytest.mark.parametrize("L", sorted(STRIP_DIGESTS))
def test_strip_rows_golden_digest(L):
    digest = hashlib.sha256(repr(strip_rows(L)).encode()).hexdigest()
    assert digest == STRIP_DIGESTS[L]


def test_strip_rows_lengths_and_worked_case():
    c1, c2, c3 = strip_rows(3)
    assert c3 == (1, 4, 2, 1, 4, 2, 4, 1, 3)  # [1423]^0 14214241 [3241]^0 3
    for L in range(3, 12):
        rows = strip_rows(L)
        assert all(len(row) == 3 * L for row in rows)


def test_strip_case1_even_k_length():
    # L = 7 = 4*2-1 with k even: rows expand to 21 = 3L
    rows = strip_rows(7)
    assert {len(r) for r in rows} == {21}


@pytest.mark.parametrize("L", range(3, 12))
def test_strip_properness_degree_and_top_row(L):
    strip = build_strip(L)
    assert is_proper(strip.tri, strip)
    assert degree(strip.tri, strip).degree == 0
    witness, _ = construct_deg6_symmetric(L)
    assert strip.rows()[-1] == witness.rows()[-1]


def test_strip_rejects_l2():
    with pytest.raises(ValueError):
        build_strip(2)


def test_glue_preserves_degree_exactly():
    c, _ = construct_deg6_symmetric(3)
    strip = build_strip(3)
    d = degree(c.tri, c).degree
    glued = glue_strip(c, strip)
    assert glued.tri.descriptor() == "T(9,12,0)"
    assert is_proper(glued.tri, glued)
    assert degree(glued.tri, glued).degree == d


def test_glue_three_colorings_periodic():
    tri = build(9, 9, 0)
    c0 = three_coloring(tri)
    strip = coloring_from_rows(build(9, 3, 0), three_coloring(build(9, 3, 0)).rows(), q=3)
    glued = glue_strip(c0, strip)
    assert glued.colors == three_coloring(build(9, 12, 0)).colors


def test_glue_rejects_mismatched_rows():
    c, _ = construct_deg6_symmetric(3)
    strip = build_strip(6)
    with pytest.raises(ValueError):
        glue_strip(c, strip)
    bad = build_strip(3)
    shifted = bad.with_colors(bad.colors[3:] + bad.colors[:3])
    with pytest.raises(ValueError):
        glue_strip(c, shifted)


def test_extend_periodic_identity_and_arithmetic():
    tri = build(6, 6, 0)
    c = nonsingular_coloring(tri)
    assert extend_periodic(c, 1, 1).colors == c.colors
    ext = extend_periodic(c, 1, 3)
    assert ext.tri.descriptor() == "T(6,18,0)"
    assert degree(ext.tri, ext).degree == 3 * degree(tri, c).degree


def test_extend_periodic_zero_degree():
    tri = build(9, 9, 0)
    from kempetorus.coloring import Coloring
    c = Coloring(tri, 4, three_coloring(tri).colors)
    ext = extend_periodic(c, 2, 2)
    assert degree(ext.tri, ext).degree == 0


def test_extend_periodic_random_multiplicativity():
    rng = random.Random(55)
    for _ in range(10):
        tri = build(6, 3, 0)
        c = random_proper_coloring(tri, 4, rng)
        p, q = rng.randrange(1, 4), rng.randrange(1, 4)
        ext = extend_periodic(c, p, q)
        assert degree(ext.tri, ext).degree == p * q * degree(tri, c).degree


def test_extend_periodic_rejects_twist():
    tri = build(6, 2, 2)
    c = random_proper_coloring(tri, 4, random.Random(0))
    with pytest.raises(ValueError):
        extend_periodic(c, 2, 1)


def test_construct_deg6_grid():
    c = construct_deg6(3, 4)
    assert c.tri.descriptor() == "T(9,12,0)"
    assert degree(c.tri, c).degree % 12 == 6


def test_construct_deg6_t6_family():
    c = construct_deg6(2, 6)
    assert c.tri.descriptor() == "T(6,18,0)"
    assert degree(c.tri, c).degree_abs == 54
    assert degree(c.tri, c).degree % 12 == 6


def test_construct_deg6_unsupported():
    with pytest.raises(ValueError):
        construct_deg6(1, 5)
    with pytest.raises(ValueError):
        construct_deg6(2, 4)   # M/2 even
    with pytest.raises(ValueError):
        construct_deg6(4, 3)   # M < L


def test_all_supported_witnesses_to_3l_30():
    for L in range(2, 11):
        for M in range(L, 11):
            if L == 2 and not (M % 2 == 0 and (M // 2) % 2 == 1):
                continue
            c = construct_deg6(L, M)
            assert is_proper(c.tri, c)
            assert degree(c.tri, c).degree % 12 == 6, (L, M)

"""Golden outputs of the NS-minimal reduction.

Each case is a seeded 4-coloring; its reduced grid, Kempe move log and
structure report are hashed together.  The digests pin which side of a
cut is swapped (the disk, or the smaller cylinder) and the order in which
surgeries and moves happen.  On T(27,27,0) a swapped side is a small
part of the torus, so those cases pin the k/l component search that the
side's interior seeds.
"""

import hashlib
import random

import pytest

from kempetorus.coloring import Coloring, random_proper_coloring, three_coloring
from kempetorus.construct import construct_deg6_symmetric
from kempetorus.fixtures import NAMES, load_fixture
from kempetorus.kempe import wsk_step
from kempetorus.lattice import build
from kempetorus.nonsingular import (all_ns_cycles, check_ns_minimal_structure,
                                    classify_edges, ns_minimal_reduce)

WSK_STEPS = 10
SEEDS = (1, 2, 3)


def golden_cases():
    """(label, coloring) for every q = 4 fixture and the seeded states."""
    cases = []
    for name in NAMES:
        c = load_fixture(name)
        if c.q == 4:
            cases.append((name, c))
    for L in (2, 3, 4, 9):
        tri = build(3 * L, 3 * L, 0)
        starts = {"three": Coloring(tri, 4, three_coloring(tri).colors),
                  "witness": construct_deg6_symmetric(L)[0]}
        for start, c0 in starts.items():
            for seed in SEEDS:
                rng = random.Random(seed)
                c = c0
                for _ in range(WSK_STEPS):
                    c = wsk_step(tri, c, rng)
                cases.append((f"{tri.descriptor()}/{start}/{seed}", c))
    for r, s in ((6, 9), (9, 6)):
        tri = build(r, s, 0)
        for seed in SEEDS:
            c = random_proper_coloring(tri, 4, random.Random(seed))
            cases.append((f"{tri.descriptor()}/random/{seed}", c))
    return cases


def reduction_digest(c: Coloring) -> str:
    reduced, log = ns_minimal_reduce(c.tri, c)
    report = check_ns_minimal_structure(c.tri, reduced)
    vertices = range(c.tri.n)
    moves = [(m.a, m.b, [v for v in vertices if m.component >> v & 1])
             for m in log]
    return hashlib.sha256(
        repr((reduced.colors, moves, report)).encode()).hexdigest()


GOLDEN = {
    "t66_ns": "d8e49122e84f8526fed6b202b98433b368e0cb5bb5883e5d8cad59370796d5a0",
    "t66_swap_bottom": "c6910625da1d76fe8609fce2581ef602cfc0c5005ea731f5335e61091976070b",
    "t66_swap_row2": "7a676784b8c8f1339e60bbc3af376e778456e8e2051e8c9c20faaa6c7e818984",
    "t66_swap_row4": "4a83c8d09fb78d1564a64641f78c58c4f945155ebefb532b8b5e4114a468a139",
    "t99_deg6": "9b1065e85624d8118041384f9f8849bc073d12c720f7cfb20621b8209d8c53e2",
    "t1212_deg6": "36c0db9992d0fa0a3312fabc26fdea0a888ef1599a02a4b14f8de583d994e6f6",
    "t1515_deg6": "8081364be48f90579961c20f47ffbfd577420dda8122e54b7b373860b722ec12",
    "t1818_deg6": "cd1c6a2ee59139d00f31b4fa592d2be09c090dac6040c10098833036b3361fef",
    "t622_ns": "0a0fb831a9e435ab2b62c2a9051383f593b4b7379756d98160583746b6b4901c",
    "T(6,6,0)/three/1": "5fa4e013ee0fc860a7fc97bacf4b2f69cfcd2e7584af19eeca128817a1d6fa76",
    "T(6,6,0)/three/2": "7e1bccd3f72aa5ea2a7c3e085917d991561c53ca2be0d17e6b2aaafec96a1a00",
    "T(6,6,0)/three/3": "64744d71d25edd2bb13cd45d5e62f83c7a710cd4634e76dbdde30e49b79e049f",
    "T(6,6,0)/witness/1": "f3781896ce75fcc8a715f55589bf579bac414ce935fa47c48bc34864c0836956",
    "T(6,6,0)/witness/2": "c9e09c96bb2eb5f62b7b995527d8a3f6275656fd64d42a975f94361dc7569f04",
    "T(6,6,0)/witness/3": "36c5b9d71ae9062b2cc2f2979afb151dea605a9d8372b68a5df8baff97605c93",
    "T(9,9,0)/three/1": "2ac1878c987146d36f5e0ce87d43872a625b47ece1f1edb347c85909b3c63bcb",
    "T(9,9,0)/three/2": "aab1a567e7714e134172c13d164f85f654e145487b7998f14e791a89e2b24c8b",
    "T(9,9,0)/three/3": "31d81b398caeede863ef993c82070da389f367e71372a67cb5d333e3675b96bb",
    "T(9,9,0)/witness/1": "f6ab4777bfd8a7610dd62f6d13d480bd9db14c44c492528c08d7f4d856485774",
    "T(9,9,0)/witness/2": "f7677bc5154cc5b368198222c992f234c8cb2cdc333a7190f84cebb269f2c3ed",
    "T(9,9,0)/witness/3": "de81aa0c7ee8581fd73a0843b11d0082d3661e04fba139755773e45225a5ef51",
    "T(12,12,0)/three/1": "89695a8d9373d253e011bf1e60f1facf83b9c6d3b5a91bb5ec236c41feadaf1a",
    "T(12,12,0)/three/2": "03769a4cafac83cd60739bd1749885f51e22c3f6c47388ec83cf703fac8f7216",
    "T(12,12,0)/three/3": "d407c591e79671cc11b74ebb3c694a33bdda417c9c0d25fce89aa0e15669df24",
    "T(12,12,0)/witness/1": "6bf92dbd92f085aefcd79e02d197cff2b11d8809dbcf77a289b75ab831e85e4b",
    "T(12,12,0)/witness/2": "3c039268fdb7a796b88f7812ab546f0b42b5441852f80890dfe6e27db28b8606",
    "T(12,12,0)/witness/3": "ec7e4e4696a0dd47bea1d4546f4bb31aa8a3e4c782e5bc94b63db4018e78e76b",
    "T(27,27,0)/three/1": "ed4de73781157544abfcfce9d5f1f5536dd726871fab2bf0236a793ba7158786",
    "T(27,27,0)/three/2": "825c1939648f078f72b30ca3c1999a1c4e76519878602be86081c68c3daa7bec",
    "T(27,27,0)/three/3": "64bdfedddf95a5b2c6190959c4ebd9cfddd472fab75d473788f592cc3b1da866",
    "T(27,27,0)/witness/1": "d330c922c93b63b530f3579dd923f0a1294f6e582f9c845e0444f501e30283a9",
    "T(27,27,0)/witness/2": "cd4c515dfe478aa24244f426c600b8614a6620d3cd8f70f831c8fc91f3c18761",
    "T(27,27,0)/witness/3": "b323ca29d6969cd3104af06c3b639c8fee7a7586fd344cd8f5b8364b928c3073",
    "T(6,9,0)/random/1": "6d6f0905e295bba045a486fac5d011aeea5160901fe792b2895120c9edbb0147",
    "T(6,9,0)/random/2": "871a46325bf6c3bfcec3fa63ef87a18f330642c104795f40eaadf9dda9eefbeb",
    "T(6,9,0)/random/3": "c254c2bb86f5763c6dec692fab0d4d4b159ecf4dfbe63289a26fda271c11ee1e",
    "T(9,6,0)/random/1": "cec31874ecd1477e588617f536887a49a067b5d6c0f654a8a730336a30343fc1",
    "T(9,6,0)/random/2": "5b9147b727a360dad9066d5bbd93a46063221e66715b4f73502081df6ae476d2",
    "T(9,6,0)/random/3": "989973166293d625eddf49593d8fbf2b2aa3b414210606f599b8bc63d1658b68",
}


CASES = golden_cases()


@pytest.mark.parametrize("label,c", CASES, ids=[lb for lb, _ in CASES])
def test_reduction_matches_golden(label, c):
    assert reduction_digest(c) == GOLDEN[label]


@pytest.mark.parametrize("label,c", CASES, ids=[lb for lb, _ in CASES])
def test_ns_cycles_agree_with_all_ns_cycles(label, c):
    # each pair's cycles are vertex-disjoint and use every edge of its
    # classify_edges bucket exactly once
    buckets = classify_edges(c.tri, c)
    for pair, cycles in all_ns_cycles(c.tri, c).items():
        vertices = [v for cy in cycles for v in cy.vertices]
        assert len(vertices) == len(set(vertices)), pair
        assert sorted(e for cy in cycles for e in cy.edges) == buckets[pair], pair

"""Golden WSK trajectories.

Each chain runs 200 zero-temperature WSK steps from a fixed start with a
seeded random.Random, and the sha256 of every coloring it visits is
pinned.  The digests fix the RNG contract (one pair draw, then one coin
per Kempe component in least-vertex order) and the swap itself, on the
3-colorable T(9,9,0), the twisted 3-colorable T(12,6,3) and the twisted
T(16,16,1), which has no 3-coloring.
"""

import hashlib
import random

import pytest

from kempetorus.coloring import Coloring, random_proper_coloring, three_coloring
from kempetorus.construct import construct_deg6_symmetric
from kempetorus.kempe import wsk_trajectory
from kempetorus.lattice import build

STEPS = 200
SEED = 1


def start(label: str) -> Coloring:
    if label == "T(9,9,0)/three":
        tri = build(9, 9, 0)
        return Coloring(tri, 4, three_coloring(tri).colors)
    if label == "T(9,9,0)/witness":
        return construct_deg6_symmetric(3)[0]
    tri = build(*{"T(16,16,1)/random": (16, 16, 1),
                  "T(12,6,3)/random": (12, 6, 3)}[label])
    return random_proper_coloring(tri, 4, random.Random(SEED))


def trajectory_digest(c: Coloring) -> str:
    h = hashlib.sha256()
    for state in wsk_trajectory(c.tri, c, STEPS, random.Random(SEED)):
        h.update(state.colors)
    return h.hexdigest()


GOLDEN = {
    "T(9,9,0)/three": "72b7074a204c68a82f5a7eb58c2837f772911712a2c4aec5caa98c0b18ebbc57",
    "T(9,9,0)/witness": "3f99d71a94d3ca87aba41ec3662586033511375fe14228f6445c9f86a640f916",
    "T(16,16,1)/random": "0c0cf914325da8ffccc78ccd3ba36d4e3214ae7e7ae55fb6acaf4adf836a262f",
    "T(12,6,3)/random": "4dc197a592c8ea8a307cb2a5e15eed65348383a7f041ef4393915b3a4e961a01",
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_wsk_trajectory_digest(label):
    assert trajectory_digest(start(label)) == GOLDEN[label]

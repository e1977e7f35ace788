"""Reference colorings shipped as grid files.

t66_ns            non-singular coloring of T(6,6); pins the degree sign (+18)
t66_swap_bottom   t66_ns with colors 1,2 swapped on the bottom row (|deg| 6)
t66_swap_row2     t66_swap_bottom with 3,4 swapped on row 2 (|deg| 6)
t66_swap_row4     t66_swap_bottom with 3,4 swapped on row 4 (|deg| 6)
t99_deg6, t1212_deg6, t1515_deg6, t1818_deg6
                  finished degree-6 witnesses of the counter-diagonal
                  constructions on T(9,9) .. T(18,18)
t622_ns           non-singular coloring of the 12-vertex torus T(6,2,2)
t622_threecolor   its 3-coloring (q = 3)
"""

from importlib import resources

from .coloring import Coloring, parse_grid

NAMES = ("t66_ns", "t66_swap_bottom", "t66_swap_row2", "t66_swap_row4",
         "t99_deg6", "t1212_deg6", "t1515_deg6", "t1818_deg6",
         "t622_ns", "t622_threecolor")


def load_fixture(name: str) -> Coloring:
    if name not in NAMES:
        raise KeyError(f"unknown fixture {name!r}; have {NAMES}")
    ref = resources.files(__package__) / "fixtures" / f"{name}.grid"
    return parse_grid(ref.read_text())

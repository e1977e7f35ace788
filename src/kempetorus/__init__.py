"""Exact analysis of Kempe-chain (zero-temperature WSK) dynamics for
4-colorings of the 6-regular torus triangulations T(r,s,t).

The library computes the topological degree of 4-colorings, runs the
WSK Markov chain, exhaustively decomposes coloring spaces into Kempe
classes, constructs explicit degree 6 (mod 12) colorings (the
non-ergodicity witnesses), and verifies the mod-12 Kempe invariant and
the non-singular structure laws behind it.
"""

from .lattice import Triangulation, build, is_three_colorable, parse_descriptor
from .coloring import (BudgetExceeded, Coloring, canonicalize,
                       coloring_from_rows, expand_row_pattern, grid_text,
                       is_proper, load_grid, nonsingular_coloring, parse_grid,
                       random_proper_coloring, save_grid, three_coloring)
from .degree import DegreeReport, degree, partial_degree, tutte_parity
from .kempe import (KempeMove, kempe_change, kempe_components, wsk_step,
                    wsk_trajectory)
from .statespace import (ClassDecomposition, EnumerationResult,
                         enumerate_colorings, kempe_classes)
from .construct import (build_strip, construct_deg6, construct_deg6_symmetric,
                        extend_periodic, glue_strip, strip_rows)
from .nonsingular import (NsCycle, algcr, all_ns_cycles,
                          check_ns_minimal_structure, classify_edges,
                          ns_minimal_reduce)
from .fixtures import load_fixture

__version__ = "0.1.0"

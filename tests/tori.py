"""Torus sweeps shared by the tests that check the library against the
oracles in `oracles.py`."""

from kempetorus.lattice import NotSimpleError, build


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
# twisted and untwisted, 3-colourable and not, up to 729 vertices
LARGE_TORI = [build(16, 16, 1), build(12, 6, 3), build(27, 27, 0)]

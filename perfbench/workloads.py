"""Workloads of the kempetorus benchmark: inputs, timed items and output gates.

A workload is a set-up step plus a fixed list of items.  One item is one
call (or one chain of calls) into the library's public functions; it
returns the seconds spent inside the library and records every checked
output in a Tally.  A mismatch counts as a failed operation and never
aborts the run.

Expected outputs are exact:
  census     class decompositions, also found by an independent brute-force
             Kempe-class search; `census-c2` is the paper's T(6,6) (C2)
  enumerate  |degree| histograms from an independent transfer matrix;
             `enumerate-c1` is the paper's T(6,6) census (C1) and T(6,6,3)
  dynamics   invariants: mod 12 along WSK chains on 3-colourable tori, even
             degree on T(16,16,1), and the NS-minimal structure laws

The workload seed drives the WSK random number generators and the random
starts and nothing else; census and enumerate inputs are fixed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import kempetorus as kt

# thread counts every `enumerate` torus runs at
THREADS = (1, 2)

# set-up is timed from a cold `build` cache
_clear_build_cache = getattr(kt.lattice.build, "cache_clear", lambda: None)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    expanded: int = 0       # census: states the class BFS expands
    steps: int = 0          # dynamics: WSK steps taken on every chain
    samples: dict = field(default_factory=dict)  # name -> list of values

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def sample(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(value)


@dataclass
class Item:
    name: str
    run: Callable[[Tally, random.Random], float]


class Census:
    """Kempe-class decomposition, `kempe_classes(T, q=4)` with one thread."""

    def __init__(self, tori: dict):
        self.tori = tori  # (r, s, t) -> [(size, residue, {|deg|: count})]

    def setup(self):
        _clear_build_cache()
        return {rst: kt.build(*rst) for rst in self.tori}

    def items(self, ctx) -> list[Item]:
        return [Item(ctx[rst].descriptor(),
                     lambda tally, rng, tri=ctx[rst], want=want:
                     self._classify(tri, want, tally))
                for rst, want in self.tori.items()]

    @staticmethod
    def _classify(tri, want, tally: Tally) -> float:
        t0 = time.perf_counter()
        dec = kt.kempe_classes(tri, 4, threads=1)
        dt = time.perf_counter() - t0
        got = [(c.size, c.residue, c.degree_abs_counts) for c in dec.classes]
        tally.check(got == want, f"{tri.descriptor()}: classes {got}, "
                                 f"want {want}")
        tally.expanded += dec.total
        return dt


class Enumerate:
    """Count-only `enumerate_colorings`, each torus at every thread count."""

    def __init__(self, tori: dict):
        self.tori = tori  # (r, s, t) -> (total, {|deg|: count})

    def setup(self):
        _clear_build_cache()
        return {rst: kt.build(*rst) for rst in self.tori}

    def items(self, ctx) -> list[Item]:
        return [Item(f"{ctx[rst].descriptor()}/t{th}",
                     lambda tally, rng, tri=ctx[rst], want=want, th=th:
                     self._count(tri, want, th, tally))
                for rst, want in self.tori.items() for th in THREADS]

    @staticmethod
    def _count(tri, want, threads, tally: Tally) -> float:
        t0 = time.perf_counter()
        res = kt.enumerate_colorings(tri, 4, threads=threads)
        dt = time.perf_counter() - t0
        got = (res.total, res.histogram)
        tally.check(got == want, f"{tri.descriptor()} threads={threads}: "
                                 f"{got}, want {want}")
        # nodes are reported as returned: the threads>1 count omits the
        # prefix assignments, so counts differ across thread counts
        tally.sample(f"nodes:{tri.descriptor()}/t{threads}", res.nodes)
        return dt


@dataclass
class Chain:
    tri: object
    start: object             # starting Coloring; None means a random start
    residue: int | None       # degree mod 12 along the chain, if 3-colourable
    label: str
    edges: np.ndarray | None = None

    def proper(self, c) -> bool:
        if self.edges is None:
            self.edges = np.array([(u, v) for u, v, _, _ in self.tri.edges])
        col = np.frombuffer(c.colors, dtype=np.uint8)
        return not np.any(col[self.edges[:, 0]] == col[self.edges[:, 1]])


class Dynamics:
    """Seeded WSK chains run as `kempetorus wsk` runs them, `degree` after
    every step; each 3-colourable chain ends with an NS-minimal reduction."""

    def __init__(self, sizes=(3, 6, 9), random_tori=((16, 16, 1),),
                 steps=100):
        self.sizes = sizes                # L: T(3L,3L,0) and its witness
        self.random_tori = random_tori    # not 3-colourable: random starts
        self.steps = steps

    def setup(self):
        _clear_build_cache()
        chains = []
        for L in self.sizes:
            tri = kt.build(3 * L, 3 * L, 0)
            three = kt.Coloring(tri, 4, kt.three_coloring(tri).colors)
            witness, _trace = kt.construct_deg6_symmetric(L)
            chains.append(Chain(tri, three, 0, f"{tri.descriptor()}/three"))
            chains.append(Chain(tri, witness, 6,
                                f"{tri.descriptor()}/witness"))
        for rst in self.random_tori:
            tri = kt.build(*rst)
            chains.append(Chain(tri, None, None, f"{tri.descriptor()}/random"))
        return chains

    def items(self, ctx) -> list[Item]:
        return [Item(ch.label, lambda tally, rng, ch=ch:
                     self._chain(ch, tally, rng)) for ch in ctx]

    def _invariant(self, ch: Chain, c, rep) -> bool:
        if ch.residue is None:
            return ch.proper(c) and rep.mod2 == 0
        return ch.proper(c) and rep.mod12 == ch.residue

    def _chain(self, ch: Chain, tally: Tally, rng: random.Random) -> float:
        tri = ch.tri
        if ch.start is None:
            # sampled on its own: restarts make its cost vary 250-fold
            # across seeds, which would swamp the chain times
            t0 = time.perf_counter()
            c = kt.random_proper_coloring(tri, 4,
                                          random.Random(rng.getrandbits(64)))
            tally.sample("random_start_s", time.perf_counter() - t0)
        else:
            c = ch.start
        t0 = time.perf_counter()
        rep = kt.degree(tri, c)
        lib = time.perf_counter() - t0
        if not tally.check(self._invariant(ch, c, rep),
                           f"{ch.label}: bad start (degree {rep.degree})"):
            return lib
        trajectory = kt.wsk_trajectory(tri, c, self.steps, rng)
        for step in range(1, self.steps + 1):
            t0 = time.perf_counter()
            c = next(trajectory)
            rep = kt.degree(tri, c)
            dt = time.perf_counter() - t0
            lib += dt
            tally.steps += 1
            if ch.residue is not None:
                tally.sample(f"step_s:{tri.descriptor()}", dt)
            if not tally.check(self._invariant(ch, c, rep),
                               f"{ch.label}: invariant broken at step "
                               f"{step} (degree {rep.degree})"):
                return lib
        if ch.residue is None:
            return lib
        t0 = time.perf_counter()
        reduced, moves = kt.ns_minimal_reduce(tri, c)
        t1 = time.perf_counter()
        report = kt.check_ns_minimal_structure(tri, reduced)
        t2 = time.perf_counter()
        lib += t2 - t0
        tally.sample("reduce_s", t1 - t0)
        tally.sample("reduce_moves", len(moves))
        rep = kt.degree(tri, reduced)
        tally.check(ch.proper(reduced) and rep.mod12 == ch.residue
                    and (report["trivial"] or report["degree_mod4"] == 2),
                    f"{ch.label}: reduction left the class or broke the "
                    f"NS-minimal laws ({report})")
        return lib


_T66 = [(305192, 0, {0: 305192}), (46, 6, {6: 45, 18: 1})]

WORKLOADS = {
    # Small tori with the census's shapes, each classified in under 2 s so
    # that a run holds many samples: two with a small residue-6 class like
    # T(6,6), and two single classes like T(6,9), one of them holding a
    # degree-12 state.
    "census": Census({
        (9, 3, 3): [(11026, 0, {0: 11026}), (54, 6, {6: 54})],
        (6, 4, 1): [(3242, 0, {0: 3242}), (4, 6, {6: 4})],
        (6, 4, 4): [(4776, 0, {0: 4775, 12: 1})],
        (3, 8, 2): [(4414, 0, {0: 4414})],
    }),
    # Under a second per call, so that the calibration around each call
    # tracks the machine's speed during it: a 3-colourable torus, and a
    # search-heavy one that is not (1085 leaves from 214254 DFS nodes).
    # Histograms agree with the transfer-matrix oracle in tests/oracles.py.
    "enumerate": Enumerate({
        (6, 5, 2): (32344, {0: 32344}),
        (5, 7, 2): (1085, {0: 35, 2: 1050}),
    }),
    # criteria C2 and C1 at full size: 62 s and 5 s per call, too long to
    # calibrate inside the timed runs; run them by name
    "census-c2": Census({(6, 6, 0): _T66}),
    "enumerate-c1": Enumerate({
        (6, 6, 0): (305238, {0: 305192, 6: 45, 18: 1}),
        (6, 6, 3): (333492, {0: 333486, 12: 6}),
    }),
    "dynamics": Dynamics(),
}

# shortened copies for the smoke tests: same code, gates and span checks
SMOKE = {
    "census": Census({(6, 4, 1): WORKLOADS["census"].tori[(6, 4, 1)]}),
    "enumerate": Enumerate({
        (6, 4, 2): (64, {0: 48, 4: 15, 12: 1}),
        (5, 6, 1): (1980, {2: 1980}),
    }),
    "dynamics": Dynamics(sizes=(3,), random_tori=((8, 8, 1),), steps=20),
}

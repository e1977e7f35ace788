"""Acceptance checks: every published exact result this library reproduces.

`CRITERIA` lists each check once, in order, with its id, name and level.
A check takes the thread count and returns (ok, details); it never raises
on a mere mismatch, so the CLI can print one line per criterion.  The
counts and residues are enforced exactly; wall time is only reported.
A census criterion is one row of data: `_pinned` binds `_census` (one
enumeration) or `_classes` (one `kempe_classes` call) to the exact
answer it expects on each torus.
"""

from __future__ import annotations

import random
import time
from functools import partial

from .coloring import (Coloring, canonicalize, is_proper, nonsingular_coloring,
                       random_proper_coloring, three_coloring)
from .construct import build_strip, construct_deg6, construct_deg6_symmetric, glue_strip, extend_periodic
from .degree import degree, face_degree_counts, tutte_parity
from .fixtures import load_fixture
from .kempe import wsk_step
from .lattice import build, parse_descriptor
from .nonsingular import check_ns_minimal_structure, ns_minimal_reduce
from .statespace import enumerate_colorings, kempe_classes


def _census(tri, threads):
    """(total, |degree| histogram) of one enumeration."""
    res = enumerate_colorings(tri, 4, threads=threads)
    return res.total, dict(sorted(res.histogram.items()))


def _classes(tri, threads):
    """[(size, residue, |degree| histogram)] of each Kempe class, largest
    first, as `kempe_classes` orders them."""
    dec = kempe_classes(tri, 4, threads=threads)
    return [(c.size, c.residue, dict(sorted(c.degree_abs_counts.items())))
            for c in dec.classes]


def _pinned(answer, threads, *, pins):
    """Compare answer(torus) with each pinned answer, {descriptor: answer},
    in turn; fail at the first torus that differs."""
    details = []
    for torus, want in pins.items():
        got = answer(parse_descriptor(torus), threads)
        if got != want:
            return False, f"{torus} {got}, want {want}"
        details.append(f"{torus} {got}")
    return True, "; ".join(details)


_WITNESS_DEGREES = {2: 18, 3: 6, 4: 6, 5: 6, 6: 6, 7: 18, 8: 18, 9: 18}
_WITNESS_FIXTURES = {2: "t66_ns", 3: "t99_deg6", 4: "t1212_deg6",
                     5: "t1515_deg6", 6: "t1818_deg6"}


def _witnesses(threads):
    problems = []
    degrees = []
    for L, want in _WITNESS_DEGREES.items():
        c, _trace = construct_deg6_symmetric(L)
        rep = degree(c.tri, c)
        degrees.append(rep.degree_abs)
        if not is_proper(c.tri, c):
            problems.append(f"L={L} not proper")
        if rep.degree_abs != want or rep.degree % 12 != 6:
            problems.append(f"L={L} |deg|={rep.degree_abs} (want {want})")
        name = _WITNESS_FIXTURES.get(L)
        if name:
            fx = load_fixture(name)
            if canonicalize(c).colors != canonicalize(fx).colors:
                problems.append(f"L={L} differs from fixture {name}")
    return not problems, "; ".join(problems) or f"degrees {degrees}"


def _mod12_along_wsk(threads):
    steps, seed = 10_000, 20240601
    rng = random.Random(seed)
    sizes = [(L, M) for L in range(1, 5) for M in range(1, 5)]
    done = 0
    while done < steps:
        L, M = sizes[rng.randrange(len(sizes))]
        tri = build(3 * L, 3 * M, 0)
        c = random_proper_coloring(tri, 4, rng)
        residue = degree(tri, c).degree % 12
        for _ in range(min(50, steps - done)):
            c = wsk_step(tri, c, rng)
            done += 1
            if not is_proper(tri, c):
                return False, f"improper state on {tri.descriptor()}"
            if degree(tri, c).degree % 12 != residue:
                return False, f"mod-12 changed on {tri.descriptor()}"
    return True, f"{done} steps checked"


def _degree_well_defined(threads):
    samples, seed = 1000, 987
    rng = random.Random(seed)
    tris = [build(r, s, t) for (r, s, t) in
            ((3, 3, 0), (6, 3, 0), (4, 4, 0), (5, 4, 2), (6, 4, 3),
             (9, 3, 0), (6, 2, 2), (7, 5, 1))]
    targets = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    for _ in range(samples):
        tri = tris[rng.randrange(len(tris))]
        c = random_proper_coloring(tri, 4, rng)
        vals = set()
        for tgt in targets:
            p, n = face_degree_counts(tri, c.colors, tgt)
            vals.add(abs(p - n))
        if len(vals) != 1:
            return False, f"|p-n| differs across targets on {tri.descriptor()}"
        d2 = degree(tri, c).mod2
        if any(tutte_parity(tri, c, a) != d2 for a in (1, 2, 3, 4)):
            return False, f"parity identity fails on {tri.descriptor()}"
    return True, f"{samples} colorings checked"


def _ns_minimal_oracle(threads):
    zero_samples, obstructed_samples, seed = 200, 20, 555
    tri = build(6, 6, 0)
    rng = random.Random(seed)
    c0 = Coloring(tri, 4, three_coloring(tri).colors)
    target = canonicalize(c0).colors
    c = c0
    for _ in range(zero_samples):
        for _ in range(5):
            c = wsk_step(tri, c, rng)
        if degree(tri, c).degree != 0:
            return False, "WSK left the degree-0 shell of the c0 class"
        reduced, _log = ns_minimal_reduce(tri, c)
        if canonicalize(reduced).colors != target:
            return False, "a degree-0 state did not reduce to the 3-coloring"
    c = nonsingular_coloring(tri)
    for _ in range(obstructed_samples):
        for _ in range(5):
            c = wsk_step(tri, c, rng)
        reduced, _log = ns_minimal_reduce(tri, c)
        try:
            report = check_ns_minimal_structure(tri, reduced)
        except AssertionError as exc:
            return False, f"structure check failed: {exc}"
        if report.get("trivial") or report["degree_mod4"] != 2:
            return False, "obstructed-class reduction lost the 2 (mod 4) law"
    return True, f"{zero_samples}+{obstructed_samples} reductions checked"


def _gluing_arithmetic(threads):
    glues, extensions, seed = 100, 50, 31415
    rng = random.Random(seed)
    done_glue = 0
    while done_glue < glues:
        L = rng.choice((3, 4, 5, 6))
        c, _ = construct_deg6_symmetric(L)
        d = degree(c.tri, c).degree
        strip = build_strip(L)
        for _ in range(min(rng.randrange(1, 4), glues - done_glue)):
            c = glue_strip(c, strip)
            done_glue += 1
            d2 = degree(c.tri, c).degree
            if d2 != d:
                return False, f"glue changed degree {d} -> {d2} on {c.tri.descriptor()}"
    for _ in range(extensions):
        tri = build(rng.choice((3, 6)), rng.choice((3, 6)), 0)
        base = random_proper_coloring(tri, 4, rng)
        d = degree(tri, base).degree
        p, q = rng.randrange(1, 4), rng.randrange(1, 4)
        ext = extend_periodic(base, p, q)
        if degree(ext.tri, ext).degree != p * q * d:
            return False, f"extension broke degree arithmetic on {tri.descriptor()}"
    w = construct_deg6(2, 6)
    rep = degree(w.tri, w)
    if rep.degree_abs != 54 or rep.degree % 12 != 6:
        return False, f"T(6,18) witness has |deg|={rep.degree_abs}, want 54"
    return True, f"{glues} glues + {extensions} extensions + T(6,18) witness"


CRITERIA = (
    ("C1", "T(6,6) enumeration census", "quick", partial(
        _pinned, _census, pins={"T(6,6,0)": (305238, {0: 305192, 6: 45, 18: 1})})),
    ("C2", "T(6,6) Kempe classes", "quick", partial(
        _pinned, _classes, pins={"T(6,6,0)": [(305192, 0, {0: 305192}),
                                              (46, 6, {6: 45, 18: 1})]})),
    ("C3", "T(3,3) degrees and class count", "quick", partial(
        _pinned, _classes, pins={"T(3,3,0)": [(10, 0, {0: 10})]})),
    # the class half costs many hours of CPU, and tens of GB for the map
    # from each of the 299146792 states to its |degree|; C12 is its census
    ("C4", "T(6,9) census and class count", "full", partial(
        _pinned, _classes, pins={"T(6,9,0)": [(299146792, 0, {0: 299146792})]})),
    ("C5", "witness constructions L=2..9", "quick", _witnesses),
    ("C6", "mod-12 invariance along WSK", "quick", _mod12_along_wsk),
    ("C7", "degree well-definedness + parity", "quick", _degree_well_defined),
    ("C8", "NS-minimal reduction oracle", "quick", _ns_minimal_oracle),
    ("C9", "gluing / extension arithmetic", "quick", _gluing_arithmetic),
    ("C10", "width-3 tori have degree 0", "quick", partial(
        _pinned, _census, pins={f"T(3,{s},0)": (total, {0: total}) for s, total
                                in ((3, 10), (4, 3), (5, 15), (6, 364))})),
    # the pinned face counts each orbit of the 24 color permutations once:
    # the tests check these totals x 24 against a brute-force labeled count
    ("C11", "symmetry-breaking orbit counts", "quick", partial(
        _pinned, _census, pins={"T(3,3,0)": (10, {0: 10}),
                                "T(6,3,0)": (364, {0: 364})})),
    ("C12", "T(6,9) enumeration census", "quick", partial(
        _pinned, _census, pins={"T(6,9,0)": (299146792, {0: 299146792})})),
)


def run_criterion(entry, threads: int = 1) -> dict:
    """Run one CRITERIA entry: its {id, name, ok, elapsed, details} record."""
    cid, name, _level, check = entry
    t0 = time.perf_counter()
    ok, details = check(threads)
    return {"id": cid, "name": name, "ok": bool(ok),
            "elapsed": round(time.perf_counter() - t0, 3), "details": details}


def run_suite(level: str = "quick", threads: int = 1):
    """Yield the records of the criteria of `level`, in table order;
    `full` adds the multi-hour T(6,9) class job."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    for entry in CRITERIA:
        if level == "full" or entry[2] == "quick":
            yield run_criterion(entry, threads)


def line(rec: dict) -> str:
    """The PASS/FAIL line of one record."""
    return (f"{'PASS' if rec['ok'] else 'FAIL'} [{rec['id']}] {rec['name']} "
            f"({rec['elapsed']:.1f}s) {rec['details']}")

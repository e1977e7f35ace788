"""Acceptance checks: every published exact result this library reproduces.

Each criterion function returns a record {id, name, ok, elapsed, details}
and never raises on a mere mismatch (ok=False with details instead), so
the CLI can print one line per criterion.  Time targets are reported,
not enforced; the counts and residues are enforced exactly.

    C1  T(6,6) census: 305238 colorings, |deg| histogram {0,6,18}
    C2  T(6,6) Kempe classes: sizes {305192, 46}
    C3  T(3,3): all degree 0, one class
    C4  T(6,9): 299146792 colorings, all degree 0, one class (full level)
    C5  witness constructions L=2..9 and their reference figures
    C6  mod-12 invariance along WSK trajectories
    C7  degree well-definedness across target triangles + parity identity
    C8  NS-minimal reduction oracle on T(6,6)
    C9  gluing / periodic-extension degree arithmetic
    C10 width-3 tori have only degree-0 colorings
    C11 symmetry-broken counts x 4! == unrestricted counts
"""

from __future__ import annotations

import random
import time

from .coloring import Coloring, canonicalize, is_proper, random_proper_coloring, three_coloring
from .construct import build_strip, construct_deg6, construct_deg6_symmetric, glue_strip, extend_periodic
from .degree import degree, face_degree_counts, tutte_parity
from .fixtures import load_fixture
from .kempe import wsk_step
from .lattice import build
from .nonsingular import check_ns_minimal_structure, ns_minimal_reduce
from .statespace import enumerate_colorings, kempe_classes


def _record(cid, name, ok, t0, details=""):
    return {"id": cid, "name": name, "ok": bool(ok),
            "elapsed": round(time.perf_counter() - t0, 3), "details": details}


def criterion_1(threads: int = 1):
    t0 = time.perf_counter()
    res = enumerate_colorings(build(6, 6, 0), 4, threads=threads)
    want = {0: 305192, 6: 45, 18: 1}
    ok = res.total == 305238 and res.histogram == want
    return _record("C1", "T(6,6) enumeration census", ok, t0,
                   f"total={res.total} histogram={dict(sorted(res.histogram.items()))}")


def criterion_2(threads: int = 1):
    t0 = time.perf_counter()
    dec = kempe_classes(build(6, 6, 0), 4, threads=threads)
    sizes = sorted(c.size for c in dec.classes)
    small = min(dec.classes, key=lambda c: c.size)
    ok = (dec.num_classes == 2 and sizes == [46, 305238 - 46]
          and small.degree_abs_counts == {6: 45, 18: 1}
          and small.residue == 6)
    return _record("C2", "T(6,6) Kempe classes", ok, t0,
                   f"classes={[(c.size, c.residue) for c in dec.classes]} "
                   f"small-class degrees={small.degree_abs_counts}")


def criterion_3():
    t0 = time.perf_counter()
    res = enumerate_colorings(build(3, 3, 0), 4)
    dec = kempe_classes(build(3, 3, 0), 4)
    ok = (set(res.histogram) == {0} and dec.num_classes == 1)
    return _record("C3", "T(3,3) degrees and class count", ok, t0,
                   f"total={res.total} histogram={res.histogram} "
                   f"classes={dec.num_classes}")


def criterion_4(threads: int = 1):
    """The long T(6,9) job: many hours of CPU, and tens of GB of memory
    for the map from each of the 299146792 states to its |degree|."""
    t0 = time.perf_counter()
    dec = kempe_classes(build(6, 9, 0), 4, threads=threads)
    histogram: dict[int, int] = {}
    for cls in dec.classes:
        for d, cnt in cls.degree_abs_counts.items():
            histogram[d] = histogram.get(d, 0) + cnt
    ok = (dec.total == 299146792 and dec.num_classes == 1
          and set(histogram) == {0})
    return _record("C4", "T(6,9) census and class count", ok, t0,
                   f"total={dec.total} classes={dec.num_classes} "
                   f"histogram={histogram}")


_WITNESS_DEGREES = {2: 18, 3: 6, 4: 6, 5: 6, 6: 6, 7: 18, 8: 18, 9: 18}
_WITNESS_FIXTURES = {2: "t66_ns", 3: "t99_deg6", 4: "t1212_deg6",
                     5: "t1515_deg6", 6: "t1818_deg6"}


def criterion_5():
    t0 = time.perf_counter()
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
    return _record("C5", "witness constructions L=2..9", not problems, t0,
                   "; ".join(problems) or f"degrees {degrees}")


def criterion_6():
    steps, seed = 10_000, 20240601
    t0 = time.perf_counter()
    rng = random.Random(seed)
    sizes = [(L, M) for L in range(1, 5) for M in range(1, 5)]
    done = 0
    problems = []
    while done < steps and not problems:
        L, M = sizes[rng.randrange(len(sizes))]
        tri = build(3 * L, 3 * M, 0)
        c = random_proper_coloring(tri, 4, rng)
        residue = degree(tri, c).degree % 12
        for _ in range(min(50, steps - done)):
            c = wsk_step(tri, c, rng)
            done += 1
            if not is_proper(tri, c):
                problems.append(f"improper state on {tri.descriptor()}")
                break
            if degree(tri, c).degree % 12 != residue:
                problems.append(f"mod-12 changed on {tri.descriptor()}")
                break
    return _record("C6", "mod-12 invariance along WSK", not problems, t0,
                   "; ".join(problems) or f"{done} steps checked")


def criterion_7():
    samples, seed = 1000, 987
    t0 = time.perf_counter()
    rng = random.Random(seed)
    tris = [build(r, s, t) for (r, s, t) in
            ((3, 3, 0), (6, 3, 0), (4, 4, 0), (5, 4, 2), (6, 4, 3),
             (9, 3, 0), (6, 2, 2), (7, 5, 1))]
    targets = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    problems = []
    for _ in range(samples):
        tri = tris[rng.randrange(len(tris))]
        c = random_proper_coloring(tri, 4, rng)
        vals = set()
        for tgt in targets:
            p, n = face_degree_counts(tri, c.colors, tgt)
            vals.add(abs(p - n))
        if len(vals) != 1:
            problems.append(f"|p-n| differs across targets on {tri.descriptor()}")
            break
        d2 = degree(tri, c).mod2
        if any(tutte_parity(tri, c, a) != d2 for a in (1, 2, 3, 4)):
            problems.append(f"parity identity fails on {tri.descriptor()}")
            break
    return _record("C7", "degree well-definedness + parity", not problems, t0,
                   "; ".join(problems) or f"{samples} colorings checked")


def criterion_8():
    zero_samples, obstructed_samples, seed = 200, 20, 555
    t0 = time.perf_counter()
    tri = build(6, 6, 0)
    rng = random.Random(seed)
    c0 = Coloring(tri, 4, three_coloring(tri).colors)
    target = canonicalize(c0).colors
    problems = []
    c = c0
    got = 0
    while got < zero_samples:
        for _ in range(5):
            c = wsk_step(tri, c, rng)
        if degree(tri, c).degree != 0:
            problems.append("WSK left the degree-0 shell of the c0 class")
            break
        reduced, _log = ns_minimal_reduce(tri, c)
        if canonicalize(reduced).colors != target:
            problems.append("a degree-0 state did not reduce to the 3-coloring")
            break
        got += 1
    from .coloring import nonsingular_coloring
    c = nonsingular_coloring(tri)
    for _ in range(obstructed_samples):
        for _ in range(5):
            c = wsk_step(tri, c, rng)
        reduced, _log = ns_minimal_reduce(tri, c)
        try:
            report = check_ns_minimal_structure(tri, reduced)
        except AssertionError as exc:
            problems.append(f"structure check failed: {exc}")
            break
        if report.get("trivial") or report["degree_mod4"] != 2:
            problems.append("obstructed-class reduction lost the 2 (mod 4) law")
            break
    return _record("C8", "NS-minimal reduction oracle", not problems, t0,
                   "; ".join(problems) or
                   f"{zero_samples}+{obstructed_samples} reductions checked")


def criterion_9():
    glues, extensions, seed = 100, 50, 31415
    t0 = time.perf_counter()
    rng = random.Random(seed)
    problems = []
    done_glue = 0
    while done_glue < glues and not problems:
        L = rng.choice((3, 4, 5, 6))
        c, _ = construct_deg6_symmetric(L)
        d = degree(c.tri, c).degree
        strip = build_strip(L)
        for _ in range(min(rng.randrange(1, 4), glues - done_glue)):
            c = glue_strip(c, strip)
            done_glue += 1
            d2 = degree(c.tri, c).degree
            if d2 != d:
                problems.append(f"glue changed degree {d} -> {d2} on {c.tri.descriptor()}")
                break
    for _ in range(extensions):
        if problems:
            break
        tri = build(rng.choice((3, 6)), rng.choice((3, 6)), 0)
        base = random_proper_coloring(tri, 4, rng)
        d = degree(tri, base).degree
        p, q = rng.randrange(1, 4), rng.randrange(1, 4)
        ext = extend_periodic(base, p, q)
        if degree(ext.tri, ext).degree != p * q * d:
            problems.append(f"extension broke degree arithmetic on {tri.descriptor()}")
    if not problems:
        w = construct_deg6(2, 6)
        rep = degree(w.tri, w)
        if rep.degree_abs != 54 or rep.degree % 12 != 6:
            problems.append(f"T(6,18) witness has |deg|={rep.degree_abs}, want 54")
    return _record("C9", "gluing / extension arithmetic", not problems, t0,
                   "; ".join(problems) or
                   f"{glues} glues + {extensions} extensions + T(6,18) witness")


def criterion_10():
    t0 = time.perf_counter()
    details = []
    ok = True
    for s in range(3, 7):
        res = enumerate_colorings(build(3, s, 0), 4)
        details.append(f"T(3,{s}): {res.total}")
        if set(res.histogram) != {0}:
            ok = False
            details.append(f"T(3,{s}) has nonzero degrees {set(res.histogram)}")
    return _record("C10", "width-3 tori have degree 0", ok, t0, ", ".join(details))


def _brute_force_count(tri, q):
    """Unrestricted proper-coloring count by plain backtracking (the oracle
    side of the symmetry-breaking check; no face pinning, no orbits)."""
    n = tri.n
    back = [tuple(w for w in tri.neighbors[v] if w < v) for v in range(n)]
    colors = bytearray(n)
    count = 0
    def rec(v):
        nonlocal count
        if v == n:
            count += 1
            return
        for col in range(1, q + 1):
            if all(colors[w] != col for w in back[v]):
                colors[v] = col
                rec(v + 1)
        colors[v] = 0
    rec(0)
    return count


def criterion_11():
    t0 = time.perf_counter()
    details = []
    ok = True
    for (r, s) in ((3, 3), (6, 3)):
        tri = build(r, s, 0)
        pinned = enumerate_colorings(tri, 4).total
        raw = _brute_force_count(tri, 4)
        details.append(f"T({r},{s}): {pinned} x 24 vs {raw}")
        if pinned * 24 != raw:
            ok = False
    return _record("C11", "symmetry-breaking vs brute force", ok, t0,
                   ", ".join(details))


QUICK = (criterion_1, criterion_2, criterion_3, criterion_5, criterion_6,
         criterion_7, criterion_8, criterion_9, criterion_10, criterion_11)


def run_suite(level: str = "quick", threads: int = 1):
    """Run the acceptance checks; `full` adds the multi-hour T(6,9) job."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    records = []
    for fn in QUICK:
        if fn in (criterion_1, criterion_2):
            records.append(fn(threads=threads))
        else:
            records.append(fn())
    if level == "full":
        records.append(criterion_4(threads=threads))
    records.sort(key=lambda r: int(r["id"][1:]))
    return records

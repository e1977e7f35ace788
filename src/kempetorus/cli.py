"""Command-line front end.

Every subcommand emits a RunReport JSON object (stdout, or --out) whose
payload is reproducible bit-exactly from the same parameters and seed;
wall time, per-phase timings and node counters live outside the
payload.  `wsk` emits CSV instead.  Exit codes: 0 ok, 1 invariant
violation, 2 usage error (bad counts and unreadable or unwritable files
included), 3 budget exceeded (running out of memory included).
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from dataclasses import asdict

from . import verify as verify_mod
from .coloring import (BudgetExceeded, Coloring, grid_text, is_proper,
                       load_grid, nonsingular_coloring, random_proper_coloring,
                       save_grid, three_coloring)
from .construct import construct_deg6, construct_deg6_symmetric
from .degree import degree
from .kempe import wsk_trajectory
from .lattice import parse_descriptor
from .nonsingular import check_ns_minimal_structure, ns_minimal_reduce
from .statespace import enumerate_colorings, kempe_classes

EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_t0 = 0.0  # perf_counter at the start of the current command


def _emit_report(args, command, tri, payload, counters=None, timings=None):
    report = {
        "command": command,
        "parameters": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "out") and v is not None},
        "triangulation": tri.descriptor() if tri is not None else None,
        "payload": payload,
        "wall_time_s": round(time.perf_counter() - _t0, 3),
        "timings": timings or {},
        "counters": counters or {},
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_build(args):
    tri = parse_descriptor(args.tri)
    _emit_report(args, "build", tri, {
        "r": tri.r, "s": tri.s, "t": tri.t,
        "adjacency": [list(row) for row in tri.neighbors],
        "faces": [list(f) for f in tri.faces]})
    return 0


def cmd_enumerate(args):
    tri = parse_descriptor(args.tri)
    res = enumerate_colorings(tri, args.q, budget_nodes=args.budget_nodes,
                              threads=args.threads)
    payload = {"total": res.total,
               "histogram": ({str(k): v for k, v in sorted(res.histogram.items())}
                             if res.histogram is not None else None)}
    _emit_report(args, "enumerate", tri, payload,
                 counters={"nodes": res.nodes})
    return 0


def cmd_classes(args):
    tri = parse_descriptor(args.tri)
    dec = kempe_classes(tri, args.q, budget_nodes=args.budget_nodes,
                        threads=args.threads)
    payload = {
        "total": dec.total,
        "num_classes": dec.num_classes,
        "classes": [{"size": c.size, "residue": c.residue,
                     "degree_abs_counts": {str(k): v for k, v in
                                           sorted(c.degree_abs_counts.items())},
                     "representative_grid": grid_text(c.representative)}
                    for c in dec.classes],
    }
    _emit_report(args, "classes", tri, payload,
                 counters={"nodes": dec.nodes, "states": dec.total,
                           "classes": dec.num_classes, "keys": dec.keys},
                 timings={k: round(t, 3) for k, t in dec.timings.items()})
    return 0


def cmd_construct(args):
    symmetric = args.M is None or args.M == args.L
    if args.trace and not symmetric:
        raise ValueError("--trace is recorded for the symmetric witness "
                         "only; omit --M or set it to --L")
    t0 = time.perf_counter()
    if symmetric:
        c, trace = construct_deg6_symmetric(args.L)
    else:
        c = construct_deg6(args.L, args.M)
    t1 = time.perf_counter()
    rep = degree(c.tri, c)
    timings = {"construct": round(t1 - t0, 3),
               "degree": round(time.perf_counter() - t1, 3)}
    payload = {"triangulation": c.tri.descriptor(),
               "degree": rep.degree, "degree_abs": rep.degree_abs,
               "degree_mod12": rep.mod12, "grid": grid_text(c)}
    if args.trace:
        payload["trace"] = [{"step": e.label, "diagonals": e.diagonals,
                             "partial_degree": e.partial_degree}
                            for e in trace]
    if args.grid_out:
        save_grid(c, args.grid_out)
    _emit_report(args, "construct", c.tri, payload, timings=timings)
    return 0


def _start_coloring(tri, start, seed):
    if start == "three":
        return Coloring(tri, 4, three_coloring(tri).colors)
    if start == "nonsingular":
        return nonsingular_coloring(tri)
    if start == "random":
        return random_proper_coloring(tri, 4, random.Random(seed ^ 0x5EED))
    c = load_grid(start)
    if c.tri != tri or not is_proper(tri, c):
        raise ValueError(f"--start grid {start} is not a proper coloring of "
                         f"{tri.descriptor()} (the grid is on {c.tri.descriptor()})")
    return c


def cmd_wsk(args):
    if args.steps < 0:
        raise ValueError("--steps must be at least 0")
    tri = parse_descriptor(args.tri)
    start = args.start
    if start == "auto":
        start = "three" if tri.is_three_colorable() else "random"
    c = _start_coloring(tri, start, args.seed)
    rng = random.Random(args.seed)

    def row(step, state):
        if args.record == "states":
            return [step, "".join(map(str, state.colors))]
        rep = degree(tri, state)
        return [step, rep.degree_abs, rep.mod12]

    first = row(0, c)  # a start the record rejects fails before any output
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["step", "state"] if args.record == "states"
                   else ["step", "degree_abs", "degree_mod12"])
        w.writerow(first)
        for step, state in enumerate(wsk_trajectory(tri, c, args.steps, rng), 1):
            w.writerow(row(step, state))
    finally:
        if args.out:
            out.close()
    return 0


def cmd_degree(args):
    t0 = time.perf_counter()
    c = load_grid(args.grid)
    t1 = time.perf_counter()
    rep = degree(c.tri, c)
    timings = {"load": round(t1 - t0, 3),
               "degree": round(time.perf_counter() - t1, 3)}
    _emit_report(args, "degree", c.tri, asdict(rep), timings=timings)
    return 0


def cmd_reduce(args):
    c = load_grid(args.grid)
    t0 = time.perf_counter()
    reduced, moves = ns_minimal_reduce(c.tri, c)
    t1 = time.perf_counter()
    report = check_ns_minimal_structure(c.tri, reduced)
    timings = {"reduce": round(t1 - t0, 3),
               "structure": round(time.perf_counter() - t1, 3)}
    if "homotopy" in report:
        report = dict(report)
        report["homotopy"] = {f"{i}{j}": list(h) for (i, j), h
                              in report["homotopy"].items()}
        report["cycle_lengths"] = {f"{i}{j}": v for (i, j), v
                                   in report["cycle_lengths"].items()}
    payload = {
        "triangulation": c.tri.descriptor(),
        "reduced_grid": grid_text(reduced),
        "moves": [{"a": m.a, "b": m.b, "component":
                   [v for v in range(c.tri.n) if m.component >> v & 1]}
                  for m in moves],
        "structure": report,
    }
    if args.grid_out:
        save_grid(reduced, args.grid_out)
    _emit_report(args, "reduce", c.tri, payload,
                 counters={"moves": len(moves)}, timings=timings)
    return 0


def cmd_verify(args):
    criteria, timings = [], {}
    for rec in verify_mod.run_suite(level=args.level, threads=args.threads):
        print(verify_mod.line(rec), file=sys.stderr, flush=True)
        timings[rec["id"]] = rec.pop("elapsed")
        criteria.append(rec)
    ok = all(rec["ok"] for rec in criteria)
    _emit_report(args, "verify", None,
                 {"level": args.level, "ok": ok, "criteria": criteria},
                 timings=timings)
    return 0 if ok else EXIT_INVARIANT


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kempetorus",
        description="Kempe dynamics of 4-colorings on torus triangulations T(r,s,t)")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, tri=False, q=False, budget=False):
        p.add_argument("--out",
                       help="write the JSON report (or CSV for wsk) here")
        if tri:
            p.add_argument("--tri", required=True,
                           help="triangulation descriptor, e.g. 'T(6,6,0)'")
        if q:
            p.add_argument("--q", type=int, default=4)
        if budget:
            p.add_argument("--budget-nodes", type=int)
            p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("build", help="construct T(r,s,t), dump tables")
    common(p, tri=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("enumerate", help="count canonical proper colorings")
    common(p, tri=True, q=True, budget=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classes", help="decompose into Kempe classes")
    common(p, tri=True, q=True, budget=True)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("construct", help="build a degree-6 (mod 12) witness")
    common(p)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--trace", action="store_true",
                   help="include the per-step partial-degree trace")
    p.add_argument("--grid-out", help="also write the coloring grid file here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("wsk", help="run the zero-temperature WSK chain")
    common(p, tri=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--record", choices=("degrees", "states"), default="degrees")
    p.add_argument("--start", default="auto",
                   help="'auto', 'three', 'nonsingular', 'random', or a grid file")
    p.set_defaults(func=cmd_wsk)

    p = sub.add_parser("degree", help="degree report of a grid file")
    common(p)
    p.add_argument("--grid", required=True)
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("reduce", help="NS-minimal reduction of a grid file")
    common(p)
    p.add_argument("--grid", required=True)
    p.add_argument("--grid-out", help="write the reduced grid file here")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="run the acceptance suite")
    common(p)
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    global _t0
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    _t0 = time.perf_counter()
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"invariant violation (bug): {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

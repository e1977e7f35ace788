"""Benchmark of the kempetorus library: one command, three workloads.

    python3 perfbench/run.py --workload census|enumerate|dynamics \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.
With `--trace 0` the workload's items run in rounds for S seconds and the
end-to-end metrics are reported.  With `--trace 1` one untraced round and
one traced round (same inputs) alternate for S seconds and the per-layer
metrics of the traced rounds are reported, with the tracing overhead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Metadata, every metric
and the per-item timings also go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_PROBES = 9
# set-up time is reported as if a bare `import numpy` took this long
REF_IMPORT_S = 0.1

# one fresh interpreter per set-up sample: imports, builds, witnesses
_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[2], sys.argv[1]]
import workloads
workloads.WORKLOADS[sys.argv[3]].setup()
print(time.perf_counter() - t0)
"""
# and one fresh interpreter that only imports numpy, the reference job
_REF_PROBE = """
import time
t0 = time.perf_counter()
import numpy
print(time.perf_counter() - t0)
"""
# numpy's BLAS thread pool starts at import; one thread keeps its start-up
# from adding noise that is not the library's
_PROBE_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def tail_percentile(n: int):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def describe(values, scale=1.0):
    """'p50=.. p99=.. n=..' for a sample list, scaled (e.g. s -> ms)."""
    if not values:
        return "n=0"
    xs = sorted(v * scale for v in values)
    parts = [f"p50={statistics.median(xs):.4g}"]
    p = tail_percentile(len(xs))
    if p is not None:
        q = statistics.quantiles(xs, n=1000, method="inclusive")
        parts.append(f"p{p:g}={q[int(p * 10) - 1]:.4g}")
    parts.append(f"max={xs[-1]:.4g} n={len(xs)}")
    return " ".join(parts)


def src_lines() -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def _probe(*args) -> float:
    proc = subprocess.run([sys.executable, "-c", *args], env=_PROBE_ENV,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


def setup_seconds(workload_name: str) -> tuple[float, list, list]:
    """Set-up time at the reference import speed, and the raw samples.

    Set-up is mostly imports, so a shared machine's drift moves it and a
    bare `import numpy` alike.  Each set-up probe is paired with a
    reference probe run right after it; the median ratio of the pairs,
    times REF_IMPORT_S, is what the set-up takes where `import numpy`
    takes REF_IMPORT_S.
    """
    setups, refs = [], []
    for _ in range(SETUP_PROBES):
        setups.append(_probe(_PROBE, BENCH_DIR, SRC, workload_name))
        refs.append(_probe(_REF_PROBE))
    ratio = statistics.median(t / r for t, r in zip(setups, refs))
    return ratio * REF_IMPORT_S, setups, refs


def calibration_s() -> float:
    """Seconds one fixed pure-Python job takes: the machine's speed now.

    The job does what the library's inner loops do: it counts the proper
    3-colourings of a 12-vertex path with chords by recursive backtracking,
    then runs a breadth-first search over 40-bit integer states with a
    visited set.  Keep it unchanged, or calibrated metrics stop comparing
    across commits.
    """
    t0 = time.perf_counter()
    n = 12
    col = bytearray(n)
    back = [tuple(w for w in (v - 1, v - 3) if w >= 0) for v in range(n)]

    def rec(v):
        if v == n:
            return 1
        count = 0
        for c in (1, 2, 3):
            if all(col[w] != c for w in back[v]):
                col[v] = c
                count += rec(v + 1)
        col[v] = 0
        return count

    rec(0)
    seen = {0}
    frontier = [0]
    while len(seen) < 1000:
        nxt = []
        for state in frontier:
            for v in range(0, 40, 2):
                key = state ^ (1 << v) ^ (2 << ((v + 6) % 40))
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
        frontier = nxt
    return time.perf_counter() - t0


def machine_speed(span: float) -> float:
    """Median calibration time over at least `span` seconds and 5 jobs."""
    samples = []
    end = time.perf_counter() + span
    while len(samples) < 5 or time.perf_counter() < end:
        samples.append(calibration_s())
    return statistics.median(samples)


def run_round(items, seed, round_no, tally, times, ratios=None,
              deadline=None):
    """Run the items in order, once; stop early when the next item's median
    time would pass `deadline`.  Returns False if it stopped early.

    With `ratios`, each item's time is also divided by the calibration time
    measured just before and just after it, and the ratio is recorded.
    Calibration runs for at least 3% of the item's time, so that its own
    jitter averages out too.
    """
    cal = machine_speed(0) if ratios is not None else None
    for item in items:
        if deadline is not None and times[item.name]:
            if time.perf_counter() + statistics.median(times[item.name]) \
                    > deadline:
                return False
        rng = random.Random(f"{seed}/{item.name}/{round_no}")
        try:
            dt = item.run(tally, rng)
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.check(False, f"{item.name}: {type(exc).__name__}: {exc}")
            continue
        times[item.name].append(dt)
        if ratios is not None:
            after = machine_speed(0.03 * dt)
            ratios[item.name].append(dt / ((cal + after) / 2))
            cal = after
    return True


def timed_run(items, seed, seconds, workloads):
    """Rounds of the items for `seconds`.

    `wall_cal` is the sum over items of the median ratio of the item's
    time to the calibration time around it.  The speed of a shared machine
    drifts by tens of percent over minutes; the ratio cancels most of it.
    Returns (tally, item times, metrics, raw job seconds).
    """
    tally = workloads.Tally()
    times = {it.name: [] for it in items}
    ratios = {it.name: [] for it in items}
    deadline = time.perf_counter() + seconds
    round_no = 0
    while run_round(items, seed, round_no, tally, times, ratios,
                    deadline if round_no else None):
        round_no += 1
        if time.perf_counter() >= deadline:
            break
    metrics = {"wall_cal": (sum(statistics.median(r) for r in ratios.values()
                                if r), "cal")}
    wall = sum(statistics.median(ts) for ts in times.values() if ts)
    tally.samples.update({f"cal_ratio:{k}": r for k, r in ratios.items()})
    return tally, times, metrics, wall


def traced_run(wl, items, seed, seconds, workloads, tracer_mod,
               spans_path=None):
    """Untraced and traced rounds on the same inputs, for `seconds`.

    Returns (tally, untraced item times, per-layer metrics, tracer).
    """
    untraced_tally = workloads.Tally()
    tally = workloads.Tally()  # traced rounds only: span checks use it
    untraced = {it.name: [] for it in items}
    traced = {it.name: [] for it in items}
    tracer = tracer_mod.Tracer()
    deadline = time.perf_counter() + seconds
    round_no = 0
    while True:
        t0 = time.perf_counter()
        run_round(items, seed, round_no, untraced_tally, untraced)
        tracer.install(extra_namespaces=[workloads])
        try:
            run_round(wl.items(wl.setup()), seed, round_no, tally, traced)
        finally:
            tracer.uninstall()
        round_no += 1
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    if spans_path:
        tracer.save(spans_path)
    metrics = layer_metrics(tracer, tracer_mod)
    untraced_s = median_round(untraced)
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (median_round(traced) - untraced_s, "s")
    # a boundary the library no longer has would read as a 100% gain
    for name in tracer.missing:
        tally.check(False, f"trace: target {name} not found")
    # the span counts must match the work the benchmark knows it asked for
    summary = tracer.summary()
    if tally.expanded:
        got = summary.get("statespace.neighbor_keys", {}).get("calls", 0)
        tally.check(got == tally.expanded,
                    f"trace: {got} neighbor_keys spans for "
                    f"{tally.expanded} expanded states")
    if tally.steps:
        got = summary.get("kempe.wsk_step", {}).get("calls", 0)
        tally.check(got == tally.steps,
                    f"trace: {got} wsk_step spans for {tally.steps} steps")
    tally.attempted += untraced_tally.attempted
    tally.failed += untraced_tally.failed
    tally.problems += untraced_tally.problems
    return tally, untraced, metrics, tracer


def median_round(times) -> float:
    """Median over complete rounds of the summed item times; 0 if none."""
    rounds = min(map(len, times.values()))
    return statistics.median(sum(ts[k] for ts in times.values())
                             for k in range(rounds)) if rounds else 0.0


def layer_metrics(tracer, tracer_mod) -> dict:
    s = tracer.summary()
    c = tracer.counters

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def own(name):
        return s.get(name, {}).get("self_s", 0.0)

    def per(x, n, scale=1.0):
        return x / n * scale if n else 0.0

    m = {}
    for layer in tracer_mod.LAYERS:
        m[f"{layer}.self_s"] = (sum(v["self_s"] for k, v in s.items()
                                    if tracer.layer_of_span(k) == layer), "s")
    m["lattice.build_ms"] = (per(total("lattice.build"),
                                 calls("lattice.build"), 1e3), "ms")
    m["coloring.is_proper.us_per_call"] = (
        per(total("coloring.is_proper"), calls("coloring.is_proper"), 1e6),
        "us")
    m["coloring.random_start_ms"] = (
        per(total("coloring.random_start"), calls("coloring.random_start"),
            1e3), "ms")
    m["degree.calls"] = (calls("degree.degree"), "count")
    m["degree.us_per_call"] = (per(total("degree.degree"),
                                   calls("degree.degree"), 1e6), "us")
    m["kempe.wsk_step.calls"] = (calls("kempe.wsk_step"), "count")
    m["kempe.wsk_step.us_per_call"] = (
        per(total("kempe.wsk_step"), calls("kempe.wsk_step"), 1e6), "us")
    n = calls("kempe.components")
    m["kempe.components.calls"] = (n, "count")
    m["kempe.components.us_per_call"] = (
        per(total("kempe.components"), n, 1e6), "us")
    m["kempe.components.per_call"] = (
        per(c.get("kempe.components.found", 0), n), "count")
    n = calls("statespace.neighbor_keys")
    keys = c.get("statespace.neighbor_keys.keys", 0)
    m["statespace.neighbor_keys.calls"] = (n, "count")
    m["statespace.neighbor_keys.us_per_state"] = (
        per(total("statespace.neighbor_keys"), n, 1e6), "us")
    m["statespace.neighbors_per_state"] = (per(keys, n), "count")
    m["statespace.canonical.calls"] = (calls("statespace.canonical"), "count")
    m["statespace.canonical.us_per_call"] = (
        per(total("statespace.canonical"), calls("statespace.canonical"),
            1e6), "us")
    m["statespace.bfs_new_ratio"] = (
        per(c.get("statespace.states", 0) - c.get("statespace.classes", 0),
            keys), "ratio")
    m["statespace.visited.self_s"] = (own("statespace.visited"), "s")
    # in-process DFS runs at one thread; with two, the parent only waits
    # for the workers, so its enumerate span stands for the whole DFS
    dfs_spans = {1: "statespace.dfs", 2: "statespace.enumerate.t2"}
    for th, span in dfs_spans.items():
        nodes = c.get(f"statespace.dfs.t{th}.nodes", 0)
        m[f"statespace.dfs.t{th}.nodes"] = (nodes, "count")
        m[f"statespace.dfs.t{th}.nodes_per_s"] = (per(nodes, total(span)),
                                                  "1/s")
        m[f"statespace.dfs.t{th}.self_s"] = (own(span), "s")
    t1, t2 = total("statespace.enumerate.t1"), total("statespace.enumerate.t2")
    m["statespace.par_eff"] = (t1 / (2 * t2) if t1 and t2 else 0.0, "ratio")
    m["construct.witness.ms_per_call"] = (
        per(total("construct.witness"), calls("construct.witness"), 1e3),
        "ms")
    n = calls("nonsingular.reduce")
    m["nonsingular.reduce.calls"] = (n, "count")
    m["nonsingular.reduce.ms_per_call"] = (
        per(total("nonsingular.reduce"), n, 1e3), "ms")
    m["nonsingular.reduce.moves_per_call"] = (
        per(c.get("nonsingular.reduce.moves", 0), n), "count")
    m["nonsingular.check.ms_per_call"] = (
        per(total("nonsingular.check"), calls("nonsingular.check"), 1e3),
        "ms")
    return m


def workload_extras(tally, times) -> list[str]:
    """Human-readable lines for timings specific to one workload."""
    lines = [f"item {name}: {describe(ts)} s" for name, ts in times.items()]
    steps = [v for k, vs in tally.samples.items() if k.startswith("step_s:")
             for v in vs]
    if steps:
        lines.append(f"wsk.steps_per_s (3-colourable chains): "
                     f"{len(steps) / sum(steps):.6g} 1/s")
    for key, values in sorted(tally.samples.items()):
        if key.startswith("cal_ratio:"):
            lines.append(f"item {key[10:]}: {describe(values)} cal")
        elif key.startswith("step_s:"):
            lines.append(f"wsk.step_us {key[7:]}: {describe(values, 1e6)} us")
        elif key.startswith("nodes:"):
            lines.append(f"dfs.nodes {key[6:]}: {values[0]} count")
        elif key.endswith("_s"):
            lines.append(f"{key[:-2]}_ms: {describe(values, 1e3)} ms")
        else:
            lines.append(f"{key}: {describe(values)} count")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kempetorus", "__init__.py")):
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    import kempetorus
    import numpy
    import tracer as tracer_mod
    import workloads
    if os.path.dirname(os.path.dirname(kempetorus.__file__)) != SRC:
        print(f"error: kempetorus imported from {kempetorus.__file__}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}")
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "src_lines": src_lines(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count()}
    items = wl.items(wl.setup())
    missing = []
    if args.trace:
        tally, times, metrics, tracer = traced_run(
            wl, items, args.seed, args.seconds, workloads, tracer_mod,
            stem + ".spans.npz")
        missing = tracer.missing
    else:
        rss_setup = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tally, times, metrics, raw_wall = timed_run(
            items, args.seed, args.seconds, workloads)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_s, setups, refs = setup_seconds(args.workload)
        metrics = {"setup_s": (setup_s, "s"), **metrics,
                   "peak_rss_mb": (rss / 1024, "MB")}
        meta["setup_samples_s"] = setups
        meta["import_numpy_samples_s"] = refs
        meta["rss_growth_after_setup_mb"] = (rss - rss_setup) / 1024
        meta["wall_s"] = raw_wall
        meta["calibration_s"] = machine_speed(0)

    lines = [f"{k}: {v}" for k, v in meta.items()]
    lines += [f"missing trace target: {name}" for name in missing]
    lines += [f"{name} = {value:.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    lines += workload_extras(tally, times)
    lines += [f"FAILED: {p}" for p in tally.problems]
    lines.append(f"fail_frac = {tally.failed / max(tally.attempted, 1):.6g} "
                 f"({tally.failed} of {tally.attempted} checks)")
    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(stem + ".json", "w") as fh:
        json.dump({"meta": meta, "result": result, "report": lines,
                   "item_seconds": times, "samples": tally.samples,
                   "missing_trace_targets": missing}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

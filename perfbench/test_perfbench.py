"""Smoke tests of the benchmark: shortened workloads through the same gates.

Run with `python3 -m pytest perfbench`.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import kempetorus  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


def timed(name, seed=1):
    wl = workloads.SMOKE[name]
    return run.timed_run(wl.items(wl.setup()), seed, 0, workloads)


def traced(name, seed=1):
    wl = workloads.SMOKE[name]
    return run.traced_run(wl, wl.items(wl.setup()), seed, 0, workloads,
                          tracer_mod)


def calls(tr, name):
    return tr.summary().get(name, {}).get("calls", 0)


@pytest.mark.parametrize("name", sorted(workloads.SMOKE))
def test_smoke_workload_passes_its_gate(name):
    tally, times, metrics, wall = timed(name)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.problems
    assert all(len(ts) == 1 for ts in times.values())
    assert metrics["wall_cal"][0] > 0 and wall > 0


def test_gate_counts_a_wrong_answer_without_aborting():
    census = workloads.Census({(6, 4, 1): [(3246, 0, {0: 3246})],
                               (3, 8, 2): [(4414, 0, {0: 4414})]})
    tally, times, _, _ = run.timed_run(census.items(census.setup()), 1, 0,
                                          workloads)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert len(times["T(3,8,2)"]) == 1


def test_census_span_counts_are_exact():
    tally, _, metrics, tr = traced("census")
    assert tally.failed == 0, tally.problems
    # the class BFS expands every one of the 3246 states exactly once
    assert calls(tr, "statespace.neighbor_keys") == 3246
    assert metrics["statespace.neighbor_keys.calls"][0] == 3246
    # canonicalised: every collected leaf, then every neighbour key
    keys = tr.counters["statespace.neighbor_keys.keys"]
    assert calls(tr, "statespace.canonical") == 3246 + keys
    assert calls(tr, "statespace.kempe_classes") == 1
    assert calls(tr, "statespace.enumerate.t1") == 1
    assert metrics["statespace.bfs_new_ratio"][0] == pytest.approx(
        (3246 - 2) / keys)


def test_enumerate_span_counts_and_node_counts():
    tally, _, metrics, tr = traced("enumerate")
    assert tally.failed == 0, tally.problems
    assert calls(tr, "statespace.enumerate.t1") == 2
    assert calls(tr, "statespace.enumerate.t2") == 2
    # only the one-thread DFS runs in this process
    assert calls(tr, "statespace.dfs") == 2
    nodes = {k: v[0] for k, v in tally.samples.items()
             if k.startswith("nodes:")}
    assert metrics["statespace.dfs.t1.nodes"][0] == (
        nodes["nodes:T(6,4,2)/t1"] + nodes["nodes:T(5,6,1)/t1"])
    assert metrics["statespace.dfs.t2.nodes"][0] == (
        nodes["nodes:T(6,4,2)/t2"] + nodes["nodes:T(5,6,1)/t2"])
    assert metrics["statespace.par_eff"][0] > 0


def test_dynamics_span_counts_reach_every_namespace():
    tally, _, metrics, tr = traced("dynamics")
    assert tally.failed == 0, tally.problems
    wl = workloads.SMOKE["dynamics"]
    chains = 2 * len(wl.sizes) + len(wl.random_tori)
    reductions = 2 * len(wl.sizes)
    assert tally.steps == chains * wl.steps
    assert calls(tr, "kempe.wsk_step") == tally.steps
    assert metrics["kempe.wsk_step.calls"][0] == tally.steps
    assert calls(tr, "nonsingular.reduce") == reductions
    assert calls(tr, "construct.witness") == len(wl.sizes)
    assert calls(tr, "coloring.random_start") == len(wl.random_tori)
    # `degree` as bound in nonsingular: the witness class never reduces to a
    # trivial colouring, so its structure check evaluates the degree
    names = tr.names
    nid, parent = list(tr.nid), list(tr.parent)
    in_check = sum(1 for i, p in zip(nid, parent) if p >= 0
                   and names[i] == "degree.degree"
                   and names[nid[p]] == "nonsingular.check")
    assert in_check >= len(wl.sizes)
    assert calls(tr, "degree.degree") == (
        chains + tally.steps + reductions + in_check)
    # `is_proper` as bound in degree, nonsingular and construct
    assert calls(tr, "coloring.is_proper") == (
        calls(tr, "degree.degree") + reductions + len(wl.sizes))
    # `kempe_components` as bound in nonsingular: surgeries add calls
    assert calls(tr, "kempe.components") > tally.steps


def test_install_replaces_every_binding_and_uninstall_restores():
    originals = {name: tracer_mod._resolve(module, attr)[2]
                 for _layer, name, module, attr in tracer_mod.TARGETS}
    modules = [m for k, m in sys.modules.items()
               if k == "kempetorus" or k.startswith("kempetorus.")]
    tr = tracer_mod.Tracer()
    tr.install(extra_namespaces=[workloads])
    try:
        assert not tr.missing
        for mod in modules + [workloads]:
            for key, value in vars(mod).items():
                assert all(value is not o for o in originals.values()), \
                    f"{mod.__name__}.{key} still unwrapped"
    finally:
        tr.uninstall()
    assert kempetorus.degree is originals["degree.degree"]
    assert kempetorus.nonsingular.degree is originals["degree.degree"]
    assert (kempetorus.statespace.PackedKempe.neighbor_keys
            is originals["statespace.neighbor_keys"])


def test_a_missing_trace_target_fails_the_run(monkeypatch):
    gone = ("kempe", "kempe.wsk_step", "kempetorus.kempe", "wsk_step_gone")
    monkeypatch.setattr(tracer_mod, "TARGETS", tracer_mod.TARGETS + (gone,))
    tally, _, _, tr = traced("dynamics")
    assert tr.missing == ["kempetorus.kempe.wsk_step_gone"]
    assert tally.failed == 1
    assert "wsk_step_gone" in tally.problems[0]


def test_seed_fixes_the_dynamics_inputs():
    a, b, c = (timed("dynamics", seed=s)[0].samples["reduce_moves"]
               for s in (5, 5, 6))
    assert a == b
    assert a != c


def _cli(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_declared_metric(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    proc = _cli(["--workload", "dynamics", "--seed", "3", "--seconds", "0",
                 "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_cli_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _cli(["--workload", "census", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

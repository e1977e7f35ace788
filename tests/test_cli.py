import json
import os
import random
import subprocess
import sys
import types

import kempetorus
from kempetorus import cli, verify
from kempetorus.cli import main
from kempetorus.coloring import (Coloring, grid_text, load_grid, parse_grid,
                                 random_proper_coloring, save_grid,
                                 three_coloring)
from kempetorus.fixtures import load_fixture
from kempetorus.kempe import KempeMove, kempe_change
from kempetorus.lattice import build


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_report(capsys):
    code, out = run(capsys, "build", "--tri", "T(3,3,0)")
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "build"
    assert rep["payload"]["r"] == 3
    assert len(rep["payload"]["adjacency"]) == 9


def test_enumerate_t33(capsys):
    code, out = run(capsys, "enumerate", "--tri", "T(3,3,0)", "--q", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"]["total"] == 10
    assert rep["payload"]["histogram"] == {"0": 10}
    # colors of 10 and more: T(3,3,0) has 9 vertices, so Bell(3)**3 orbits
    code, out = run(capsys, "enumerate", "--tri", "T(3,3,0)", "--q", "10")
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"] == {"total": 125, "histogram": None}


def test_classes_t33(capsys):
    code, out = run(capsys, "enumerate", "--tri", "T(3,3,0)", "--q", "4")
    nodes = json.loads(out)["counters"]["nodes"]
    code, out = run(capsys, "classes", "--tri", "T(3,3,0)", "--q", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"]["num_classes"] == 1
    # the enumeration's DFS nodes, every state in one class, and one key
    # for each of the other nine
    assert rep["counters"] == {"nodes": nodes, "states": 10, "classes": 1,
                               "keys": 9}
    grid = rep["payload"]["classes"][0]["representative_grid"]
    assert grid.startswith("T 3 3 0 4\n")
    # the mod-12 degree is a 4-coloring invariant only
    code, out = run(capsys, "classes", "--tri", "T(3,3,0)", "--q", "3")
    assert code == 0
    assert [c["residue"] for c in json.loads(out)["payload"]["classes"]] \
        == [None]


def test_classes_reports_phase_timings_and_keys(capsys):
    code, out = run(capsys, "classes", "--tri", "T(6,4,1)")
    assert code == 0
    rep = json.loads(out)
    assert sorted(rep["timings"]) == ["enumerate", "search"]
    assert all(0 <= t <= rep["wall_time_s"] for t in rep["timings"].values())
    # the class search generates each Kempe cube's members once
    assert rep["counters"]["states"] == 3246
    assert rep["counters"]["keys"] == 6984


def test_classes_q10_grids_roundtrip(capsys):
    # q is written as a number; only colors above 9 have no grid form
    code, out = run(capsys, "classes", "--tri", "T(3,3,0)", "--q", "10")
    assert code == 0
    grids = [c["representative_grid"]
             for c in json.loads(out)["payload"]["classes"]]
    assert grids
    for grid in grids:
        c = parse_grid(grid)
        assert c.q == 10 and grid_text(c) == grid


def test_construct_and_degree(tmp_path, capsys):
    grid = tmp_path / "w.grid"
    code, out = run(capsys, "construct", "--L", "2", "--M", "2",
                    "--grid-out", str(grid))
    assert code == 0
    code, out = run(capsys, "degree", "--grid", str(grid))
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"]["degree_abs"] == 18


def test_report_triangulation_is_not_a_parameter(tmp_path, capsys):
    # degree and reduce read their torus from the grid and construct from
    # --L; none of them takes --tri
    grid = tmp_path / "w.grid"
    code, out = run(capsys, "construct", "--L", "2", "--grid-out", str(grid))
    assert code == 0
    rep = json.loads(out)
    assert rep["triangulation"] == "T(6,6,0)"
    assert sorted(rep["timings"]) == ["construct", "degree"]
    for command in ("degree", "reduce"):
        code, out = run(capsys, command, "--grid", str(grid))
        assert code == 0, command
        rep = json.loads(out)
        assert rep["triangulation"] == "T(6,6,0)", command
        assert rep["parameters"] == {"command": command, "grid": str(grid)}


def _stub_check(ok):
    return lambda threads: (ok, f"threads={threads}")


def test_reports_have_no_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verify, "CRITERIA", (
        ("C1", "passes", "quick", _stub_check(True)),))
    grid = tmp_path / "w.grid"
    for argv in (["build", "--tri", "T(3,3,0)"],
                 ["enumerate", "--tri", "T(3,3,0)"],
                 ["classes", "--tri", "T(3,3,0)"],
                 ["construct", "--L", "2", "--grid-out", str(grid)],
                 ["degree", "--grid", str(grid)],
                 ["reduce", "--grid", str(grid)],
                 ["verify"]):
        code, out = run(capsys, *argv)
        assert code == 0, argv
        rep = json.loads(out)
        assert rep["command"] == argv[0]
        assert "seed" not in rep, argv


def test_verify_report(capsys, monkeypatch):
    monkeypatch.setattr(verify, "CRITERIA", (
        ("C1", "passes", "quick", _stub_check(True)),
        ("C2", "fails", "quick", _stub_check(False)),
        ("C3", "long", "full", _stub_check(True))))
    records = [
        {"id": "C1", "name": "passes", "ok": True, "details": "threads=1"},
        {"id": "C2", "name": "fails", "ok": False, "details": "threads=1"},
        {"id": "C3", "name": "long", "ok": True, "details": "threads=1"}]
    for level, n in (("quick", 2), ("full", 3)):
        assert main(["verify", "--level", level]) == 1, level
        out = capsys.readouterr()
        rep = json.loads(out.out)
        assert rep["command"] == "verify"
        assert rep["triangulation"] is None
        assert rep["payload"] == {"level": level, "ok": False,
                                  "criteria": records[:n]}
        assert set(rep["timings"]) == {rec["id"] for rec in records[:n]}
        err = out.err.splitlines()
        assert len(err) == n
        assert err[0].startswith("PASS [C1] passes (")
        assert err[1].startswith("FAIL [C2] fails (")
        assert err[1].endswith(") threads=1")


def test_construct_trace(capsys):
    code, out = run(capsys, "construct", "--L", "3", "--trace")
    assert code == 0
    rep = json.loads(out)
    assert [e["partial_degree"] for e in rep["payload"]["trace"]] \
        == [4, 4, 4, 2, 6]
    assert rep["payload"]["degree_mod12"] == 6


def test_construct_trace_of_glued_witness_is_a_usage_error(capsys):
    # only the symmetric witness has a trace; glued strips record none
    assert main(["construct", "--L", "3", "--M", "4", "--trace"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    err = out.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --trace")
    code, out = run(capsys, "construct", "--L", "3", "--M", "3", "--trace")
    assert code == 0 and "trace" in json.loads(out)["payload"]


def test_wsk_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _ = run(capsys, "wsk", "--tri", "T(9,9,0)", "--steps", "20",
                      "--seed", "7", "--out", str(path))
        assert code == 0
    assert a.read_text() == b.read_text()
    lines = a.read_text().strip().splitlines()
    assert lines[0] == "step,degree_abs,degree_mod12"
    assert len(lines) == 22
    assert all(line.endswith(",0") for line in lines[1:])


def test_wsk_states_record(tmp_path, capsys):
    out = tmp_path / "states.csv"
    code, _ = run(capsys, "wsk", "--tri", "T(6,6,0)", "--steps", "5",
                  "--seed", "3", "--start", "nonsingular", "--out", str(out))
    assert code == 0


def test_wsk_states_of_more_than_nine_colors_exit_2_before_any_output(
        tmp_path, capsys):
    # one digit a vertex: colour 11 would read as two vertices of colour 1
    grid, csv_out = tmp_path / "q12.grid", tmp_path / "states.csv"
    text = grid_text(load_fixture("t66_ns"))
    grid.write_text(text.replace("T 6 6 0 4", "T 6 6 0 12", 1))
    argv = ["wsk", "--tri", "T(6,6,0)", "--start", str(grid), "--steps", "5",
            "--seed", "3", "--record", "states"]
    for extra in ([], ["--out", str(csv_out)]):
        assert main(argv + extra) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            "error: --record states writes colors 1..9 only, one digit each; "
            "the start has q = 12"]
    assert not csv_out.exists()


def test_wsk_start_must_color_the_torus(tmp_path, capsys):
    w9, t940, improper = (tmp_path / n for n in ("w9.grid", "t940.grid",
                                                  "improper.grid"))
    assert main(["construct", "--L", "3", "--grid-out", str(w9)]) == 0
    save_grid(random_proper_coloring(build(9, 4, 0), 4, random.Random(1)),
              t940)  # 36 vertices, as T(6,6,0) has
    improper.write_text("T 3 3 0 4\n111\n111\n111\n")
    capsys.readouterr()
    for grid, tri, on in ((w9, "T(6,6,0)", "T(9,9,0)"),
                          (t940, "T(6,6,0)", "T(9,4,0)"),
                          (improper, "T(3,3,0)", "T(3,3,0)")):
        for record in ("states", "degrees"):
            assert main(["wsk", "--tri", tri, "--start", str(grid),
                         "--record", record, "--steps", "2"]) == 2
            out = capsys.readouterr()
            assert out.out == "", (grid, record)
            assert out.err.splitlines() == [
                f"error: --start grid {grid} is not a proper coloring of "
                f"{tri} (the grid is on {on})"], (grid, record)


def test_wsk_degrees_of_a_five_coloring_exit_2_before_any_output(tmp_path,
                                                                 capsys):
    g5, csv_out = tmp_path / "g5.grid", tmp_path / "w.csv"
    save_grid(random_proper_coloring(build(6, 6, 0), 5, random.Random(4)), g5)
    argv = ["wsk", "--tri", "T(6,6,0)", "--start", str(g5), "--steps", "3"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        "error: degree is defined for 4-colorings only"]
    assert main(argv + ["--out", str(csv_out)]) == 2
    assert not csv_out.exists()
    # states need no degree, so they are recorded for any q
    code, out = run(capsys, *argv, "--record", "states")
    assert code == 0 and len(out.splitlines()) == 5


def test_degree_rejects_rows_beyond_header(tmp_path, capsys):
    tri = build(3, 6, 0)
    text = grid_text(Coloring(tri, 4, three_coloring(tri).colors))
    grid = tmp_path / "six_rows.grid"
    grid.write_text(text.replace("T 3 6 0 4", "T 3 3 0 4", 1))
    assert main(["degree", "--grid", str(grid)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        "error: grid has more rows than the header's s = 3"]
    grid.write_text(text + "\n\n")  # trailing blank lines are fine
    code, out = run(capsys, "degree", "--grid", str(grid))
    assert code == 0 and json.loads(out)["triangulation"] == "T(3,6,0)"


def test_reduce_roundtrip(tmp_path, capsys):
    src = tmp_path / "ns.grid"
    reduced = tmp_path / "reduced.grid"
    fx = load_fixture("t66_ns")
    save_grid(fx, src)
    code, out = run(capsys, "reduce", "--grid", str(src),
                    "--grid-out", str(reduced))
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"]["structure"]["degree_mod4"] == 2
    assert rep["payload"]["moves"]  # the move log lives in the payload
    c = load_grid(reduced)
    assert c.tri.descriptor() == "T(6,6,0)"
    # each move lists its component's vertices, ascending; replaying the
    # log through kempe_change leads from the input to the reduced grid
    state = fx
    for m in rep["payload"]["moves"]:
        assert m["component"] == sorted(set(m["component"]))
        state = kempe_change(fx.tri, state, KempeMove(
            m["a"], m["b"], sum(1 << v for v in m["component"])))
    assert grid_text(state) == rep["payload"]["reduced_grid"]
    assert state.colors == c.colors
    # the payload's move log is the only one; --log-out is gone
    assert main(["reduce", "--grid", str(src),
                 "--log-out", str(tmp_path / "log.json")]) == 2


def test_reduce_reports_phase_timings_and_moves(tmp_path, capsys):
    src = tmp_path / "ns.grid"
    save_grid(load_fixture("t66_ns"), src)
    code, out = run(capsys, "reduce", "--grid", str(src))
    assert code == 0
    rep = json.loads(out)
    assert sorted(rep["timings"]) == ["reduce", "structure"]
    assert all(0 <= t <= rep["wall_time_s"] for t in rep["timings"].values())
    assert rep["counters"] == {"moves": len(rep["payload"]["moves"])}
    assert rep["counters"]["moves"] > 0


def test_construct_reports_phase_timings(capsys):
    code, out = run(capsys, "construct", "--L", "3")
    assert code == 0
    rep = json.loads(out)
    assert sorted(rep["timings"]) == ["construct", "degree"]
    assert all(0 <= t <= rep["wall_time_s"] for t in rep["timings"].values())
    assert rep["counters"] == {}


def test_degree_reports_phase_timings(tmp_path, capsys):
    src = tmp_path / "w.grid"
    save_grid(load_fixture("t66_ns"), src)
    code, out = run(capsys, "degree", "--grid", str(src))
    assert code == 0
    rep = json.loads(out)
    assert sorted(rep["timings"]) == ["degree", "load"]
    assert all(0 <= t <= rep["wall_time_s"] for t in rep["timings"].values())
    assert rep["counters"] == {}


def test_usage_error_exit_code(capsys):
    assert main(["enumerate"]) == 2            # missing --tri
    assert main(["degree", "--grid", "/nonexistent/x.grid"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["verify", "--level", "bogus"]) == 2
    assert main(["build", "--tri", "T(3,2,0)"]) == 2  # not simple


def test_unwritable_output_exits_2(tmp_path, capsys):
    # a directory cannot be opened for writing
    for argv in (["build", "--tri", "T(3,3,0)", "--out", str(tmp_path)],
                 ["construct", "--L", "2", "--grid-out", str(tmp_path)],
                 ["wsk", "--tri", "T(3,3,0)", "--steps", "1",
                  "--out", str(tmp_path)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), argv


def test_bad_counts_exit_2(capsys):
    for argv, msg in (
            (["enumerate", "--tri", "T(3,3,0)", "--threads", "0"],
             "threads must be at least 1"),
            (["enumerate", "--tri", "T(3,3,0)", "--threads", "-2"],
             "threads must be at least 1"),
            (["classes", "--tri", "T(3,3,0)", "--threads", "0"],
             "threads must be at least 1"),
            (["wsk", "--tri", "T(3,3,0)", "--steps", "-3"],
             "--steps must be at least 0"),
            (["enumerate", "--tri", "T(3,3,0)", "--budget-nodes", "-1"],
             "budget_nodes must be at least 0"),
            (["classes", "--tri", "T(3,3,0)", "--budget-nodes", "-1"],
             "budget_nodes must be at least 0")):
        assert main(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "", argv
        assert out.err.splitlines() == [f"error: {msg}"], argv


def test_budget_exit_code(capsys):
    code, _ = run(capsys, "enumerate", "--tri", "T(6,6,0)", "--q", "4",
                  "--budget-nodes", "100")
    assert code == 3
    # zero nodes is a real budget, not a bad count
    code, _ = run(capsys, "enumerate", "--tri", "T(3,3,0)",
                  "--budget-nodes", "0")
    assert code == 3


def test_budget_exit_code_threaded():
    # a pool worker exceeding the node budget must not hang the pool or
    # print a traceback; at 10 nodes the workers' cut of the tree is over
    # budget, at 2000 their search below it
    src = os.path.dirname(os.path.dirname(kempetorus.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for budget in ("10", "2000"):
        proc = subprocess.run(
            [sys.executable, "-m", "kempetorus.cli", "enumerate",
             "--tri", "T(6,5,2)", "--budget-nodes", budget, "--threads", "2"],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: nodes budget exceeded (limit {budget})"]


def test_torus_beyond_the_recursion_limit_exits_2(capsys):
    # the outcome does not depend on the thread count
    for cmd in ("enumerate", "classes"):
        for threads in ("1", "2"):
            code = main([cmd, "--tri", "T(40,40,0)", "--budget-nodes", "5000",
                         "--threads", threads])
            assert code == 2, (cmd, threads)
            out = capsys.readouterr()
            assert out.out == ""
            assert "recursive DFS" in out.err


def test_out_of_memory_exits_3(capsys, monkeypatch):
    # building T(r,s,t) takes memory linear in r*s: T(1500,1500,0) runs
    # out under a 2 GB address-space limit
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_descriptor", exhausted)
    for cmd in ("build", "enumerate", "classes"):
        code = main([cmd, "--tri", "T(1500,1500,0)"])
        assert code == 3, cmd
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: out of memory"]


def test_wsk_without_a_coloring_exits_2():
    # T(7,1,2) is K7, so `--start auto` picks a random start that cannot exist
    src = os.path.dirname(os.path.dirname(kempetorus.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "kempetorus.cli", "wsk", "--tri", "T(7,1,2)",
         "--steps", "1"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: T(7,1,2) has no proper 4-coloring"]


def test_wsk_out_of_random_restarts_exits_3(capsys, monkeypatch):
    class NoShuffle(random.Random):
        def shuffle(self, x):
            pass

    # unshuffled, every restart repeats one search that runs out of nodes,
    # so a few restarts show what the full 1000 would
    monkeypatch.setattr(cli, "random", types.SimpleNamespace(Random=NoShuffle))
    monkeypatch.setattr(kempetorus.coloring, "_RESTARTS", 3)
    code = main(["wsk", "--tri", "T(9,6,0)", "--start", "random",
                 "--steps", "1"])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: T(9,6,0) random-start restarts budget exceeded (limit 3)"]
    # T(5,2,1) has no proper 4-coloring: a usage error, whatever the
    # size of its search tree
    code = main(["wsk", "--tri", "T(5,2,1)", "--start", "random",
                 "--steps", "1"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: T(5,2,1) has no proper 4-coloring"]


def test_report_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(capsys, "enumerate", "--tri", "T(3,3,0)", "--q", "4",
                    "--out", str(path))
    assert code == 0 and out == ""
    rep = json.loads(path.read_text())
    assert rep["payload"]["total"] == 10


def test_payload_reproducible(capsys):
    outs = []
    for _ in range(2):
        code, out = run(capsys, "classes", "--tri", "T(6,3,0)", "--q", "4")
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0]["payload"] == outs[1]["payload"]
    assert outs[0]["parameters"] == outs[1]["parameters"]


def test_classes_exit_zero_off_the_invariant(capsys):
    # mod 12 is only a Kempe invariant on 3-colorable tori; T(8,1,2) has
    # one row, so its pinned face wraps around that row
    for tri in ("T(4,4,0)", "T(4,4,2)", "T(6,4,2)", "T(8,1,2)"):
        code, out = run(capsys, "classes", "--tri", tri)
        assert code == 0, tri
        rep = json.loads(out)
        assert all(c["residue"] is None for c in rep["payload"]["classes"])

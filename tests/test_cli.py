import json
import os
import random
import subprocess
import sys
import types

import kempetorus
from kempetorus import cli
from kempetorus.cli import main
from kempetorus.coloring import load_grid
from kempetorus.fixtures import load_fixture


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
    code, out = run(capsys, "classes", "--tri", "T(3,3,0)", "--q", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"]["num_classes"] == 1
    grid = rep["payload"]["classes"][0]["representative_grid"]
    assert grid.startswith("T 3 3 0 4\n")
    # the mod-12 degree is a 4-coloring invariant only
    code, out = run(capsys, "classes", "--tri", "T(3,3,0)", "--q", "3")
    assert code == 0
    assert [c["residue"] for c in json.loads(out)["payload"]["classes"]] \
        == [None]


def test_construct_and_degree(tmp_path, capsys):
    grid = tmp_path / "w.grid"
    code, out = run(capsys, "construct", "--L", "2", "--M", "2",
                    "--grid-out", str(grid))
    assert code == 0
    code, out = run(capsys, "degree", "--grid", str(grid))
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"]["degree_abs"] == 18


def test_construct_trace(capsys):
    code, out = run(capsys, "construct", "--L", "3", "--trace")
    assert code == 0
    rep = json.loads(out)
    assert [e["partial_degree"] for e in rep["payload"]["trace"]] \
        == [4, 4, 4, 2, 6]
    assert rep["payload"]["degree_mod12"] == 6


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


def test_reduce_roundtrip(tmp_path, capsys):
    src = tmp_path / "ns.grid"
    reduced = tmp_path / "reduced.grid"
    log = tmp_path / "log.json"
    fx = load_fixture("t66_ns")
    from kempetorus.coloring import save_grid
    save_grid(fx, src)
    code, out = run(capsys, "reduce", "--grid", str(src),
                    "--grid-out", str(reduced), "--log-out", str(log))
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"]["structure"]["degree_mod4"] == 2
    c = load_grid(reduced)
    moves = json.loads(log.read_text())
    assert len(moves) == len(rep["payload"]["moves"])
    assert c.tri.descriptor() == "T(6,6,0)"


def test_usage_error_exit_code(capsys):
    assert main(["enumerate"]) == 2            # missing --tri
    assert main(["degree", "--grid", "/nonexistent/x.grid"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["verify", "--level", "bogus"]) == 2
    assert main(["build", "--tri", "T(3,2,0)"]) == 2  # not simple


def test_budget_exit_code(capsys):
    code, _ = run(capsys, "enumerate", "--tri", "T(6,6,0)", "--q", "4",
                  "--budget-nodes", "100")
    assert code == 3


def test_budget_exit_code_threaded():
    # a pool worker exceeding the node budget must not hang the pool or
    # print a traceback; at 10 nodes the first result back from the pool is
    # always a worker's budget error, at 2000 it may be the parent's
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

    # unshuffled, every restart repeats one search that runs out of nodes
    monkeypatch.setattr(cli, "random", types.SimpleNamespace(Random=NoShuffle))
    code = main(["wsk", "--tri", "T(5,2,1)", "--start", "random",
                 "--steps", "1"])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: T(5,2,1) random-start restarts budget exceeded (limit 1000)"]


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

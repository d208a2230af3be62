import json
import sys

import pytest

from conftest import small_dst
from dbnet.cli import main
from dbnet.generators import gen_dst, gen_gst
from dbnet.instances import parse_dst, serialize_dst, serialize_gst
from dbnet.lpcore import solve_lp
from dbnet.states import build_super_tree


@pytest.fixture()
def dst_file(tmp_path):
    inst, _, _, h = small_dst(3)
    p = tmp_path / "a.dst"
    p.write_text(serialize_dst(inst))
    return str(p), h


@pytest.fixture()
def gst_file(tmp_path):
    inst = gen_gst(25, 3, seed=4)
    p = tmp_path / "a.gst"
    p.write_text(serialize_gst(inst))
    return str(p)


def test_gen_commands_deterministic(tmp_path):
    a = tmp_path / "x1.dst"
    b = tmp_path / "x2.dst"
    for out in (a, b):
        assert main(["gen-dst", "--n", "7", "--m", "10", "--k", "2",
                     "--seed", "5", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_and_verify_dst(tmp_path, dst_file):
    path, h = dst_file
    out = tmp_path / "rep.json"
    assert main(["solve-dst", "--instance", path, "--seed", "1",
                 "--height", str(h), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 2
    assert main(["verify", "--tree", str(out), "--instance", path]) == 0


def test_report_byte_identical(tmp_path, dst_file):
    path, h = dst_file
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["solve-dst", "--instance", path, "--seed", "9",
                     "--height", str(h), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_solve_and_verify_gst(tmp_path, gst_file):
    out = tmp_path / "rep.json"
    assert main(["solve-gst", "--instance", gst_file, "--seed", "1",
                 "--out", str(out)]) == 0
    assert main(["verify", "--tree", str(out), "--instance", gst_file]) == 0


def test_verify_rejects_broken_tree(tmp_path, dst_file, capsys):
    path, h = dst_file
    out = tmp_path / "rep.json"
    main(["solve-dst", "--instance", path, "--seed", "1",
          "--height", str(h), "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["tree_edges"] = doc["tree_edges"] + [[0, 0]]
    out.write_text(json.dumps(doc))
    assert main(["verify", "--tree", str(out), "--instance", path]) == 4


def test_oracle_commands(tmp_path, dst_file, gst_file):
    path, _ = dst_file
    out = tmp_path / "o.json"
    assert main(["oracle-dst", "--instance", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "OPTIMAL" and doc["cost"] > 0
    assert main(["oracle-gst", "--instance", gst_file,
                 "--out", str(out)]) == 0


def test_run_dst_with_oracle_dominance(tmp_path, dst_file):
    path, h = dst_file
    out = tmp_path / "run.json"
    assert main(["run", "--problem", "dst", "--instance", path,
                 "--seed", "1", "--height", str(h), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["oracle"]["status"] == "OPTIMAL"
    assert doc["lp_cost"] <= doc["oracle"]["cost"] + 1e-6


def _count_calls(monkeypatch, fn) -> list:
    """Replace ``fn`` wherever a dbnet module refers to it; one list entry
    per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "dbnet" or name.startswith("dbnet."):
            for key, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_run_below_height_budget_keeps_oracle(tmp_path):
    # h=3 is below this instance's height budget, where the LP (52) may
    # exceed the optimum (42) without anything being wrong
    path = tmp_path / "s4.dst"
    path.write_text(serialize_dst(gen_dst(6, 8, 3, seed=4)))
    out = tmp_path / "run.json"
    assert main(["run", "--problem", "dst", "--instance", str(path),
                 "--height", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["oracle"]["status"] == "OPTIMAL"
    assert doc["lp_cost"] > doc["oracle"]["cost"]


def test_run_dst_trials_reuse_the_solve(tmp_path, dst_file, monkeypatch):
    path, h = dst_file
    builds = _count_calls(monkeypatch, build_super_tree)
    solves = _count_calls(monkeypatch, solve_lp)
    out = tmp_path / "run.json"
    assert main(["run", "--problem", "dst", "--instance", path,
                 "--seed", "3", "--height", str(h), "--trials", "300",
                 "--out", str(out)]) == 0
    assert (len(builds), len(solves)) == (1, 1)
    stats = json.loads(out.read_text())["stats"]
    with open(path) as f:
        terms = parse_dst(f.read()).terminals
    assert sorted(stats["per_terminal_hit"]) == sorted(map(str, terms))
    assert all(entry["trials"] == 300
               for entry in stats["per_terminal_hit"].values())
    assert stats["cost"]["trials"] == 300


def test_run_gst_with_trials(tmp_path, gst_file, monkeypatch):
    solves = _count_calls(monkeypatch, solve_lp)
    out = tmp_path / "run.json"
    assert main(["run", "--problem", "gst", "--instance", gst_file,
                 "--seed", "7", "--trials", "500", "--out", str(out)]) == 0
    assert len(solves) == 1
    doc = json.loads(out.read_text())
    stats = doc["stats"]["per_group_hit"]
    for entry in stats.values():
        assert set(entry) == {"mean", "stddev", "trials"}
        assert entry["trials"] == 500


@pytest.mark.parametrize("problem,text", [
    ("dst", "DBDST 1\n2 1 0\nroot 0\nvertex 0 1\nvertex 1 0\n"
            "edge 0 1 5\n"),
    ("gst", "DBGST 1\n3 0\nroot 0\nvertex 0 -1 0 2\nvertex 1 0 3 1\n"
            "vertex 2 0 4 1\n")], ids=["dst", "gst"])
def test_no_terminals_gives_empty_tree(tmp_path, problem, text):
    path = tmp_path / f"k0.{problem}"
    path.write_text(text)
    out = tmp_path / "rep.json"
    assert main([f"solve-{problem}", "--instance", str(path),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    if problem == "dst":
        assert (doc["Q"], doc["tree_edges"], doc["coverage"]) == (0, [], 1.0)
    else:
        assert (doc["M"], doc["union_vertices"], doc["coverage"]) == \
            (0, [0], [])
    assert main(["verify", "--tree", str(out), "--instance", str(path)]) == 0
    assert main(["run", "--problem", problem, "--instance", str(path),
                 "--trials", "20", "--out", str(out)]) == 0
    assert main(["verify", "--tree", str(out), "--instance", str(path)]) == 0


def test_run_generated(tmp_path):
    out = tmp_path / "run.json"
    assert main(["run", "--problem", "dst", "--gen", "n=5,m=6,k=2,d=2",
                 "--seed", "1", "--height", "4", "--out", str(out)]) == 0


def test_exit_codes(tmp_path):
    # parse error
    bad = tmp_path / "bad.dst"
    bad.write_text("not a file\n")
    assert main(["solve-dst", "--instance", str(bad)]) == 5
    # missing file
    assert main(["solve-dst", "--instance", str(tmp_path / "no.dst")]) == 5
    # infeasible oracle
    infeasible = tmp_path / "inf.dst"
    infeasible.write_text(
        "DBDST 1\n3 2 2\nroot 0\nvertex 0 1\nvertex 1 0\nvertex 2 0\n"
        "edge 0 1 1\nedge 0 2 1\nterminal 1\nterminal 2\n")
    assert main(["oracle-dst", "--instance", str(infeasible)]) == 2
    # node cap exceeded
    big = tmp_path / "big.dst"
    big.write_text(serialize_dst(gen_dst(8, 14, 4, d_max=3, seed=0)))
    assert main(["solve-dst", "--instance", str(big), "--height", "9",
                 "--node-cap", "2000"]) == 3


@pytest.mark.parametrize("height,cause", [
    ("2", "DST LP is infeasible"),
    ("1", "terminal 3 appears in no base node")])
def test_height_below_budget_is_a_cap_error(tmp_path, capsys, height, cause):
    # the instance solves at --height 3; its height budget is 8
    path = tmp_path / "s1.dst"
    path.write_text(serialize_dst(gen_dst(6, 8, 3, seed=1)))
    assert main(["run", "--problem", "dst", "--instance", str(path),
                 "--height", height]) == 3
    err = capsys.readouterr().err
    assert f"height {height} is below the height budget 8" in err
    assert cause in err


def test_infeasible_at_budget_names_original_terminal(tmp_path, capsys):
    # terminal 2 has an out-edge, so it is split; nothing reaches it
    path = tmp_path / "unreach.dst"
    path.write_text("DBDST 1\n4 2 2\nroot 0\nvertex 0 1\nvertex 1 0\n"
                    "vertex 2 1\nvertex 3 0\nedge 0 1 1\nedge 2 3 1\n"
                    "terminal 1\nterminal 2\n")
    assert main(["solve-dst", "--instance", str(path)]) == 2
    assert "terminal 2 appears in no base node" in capsys.readouterr().err


def test_dump_commands(tmp_path, dst_file, gst_file):
    path, h = dst_file
    out = tmp_path / "dump.txt"
    assert main(["dump-supertree", "--instance", path, "--height", str(h),
                 "--out", str(out)]) == 0
    assert "state" in out.read_text()
    assert main(["dump-lp", "--problem", "dst", "--instance", path,
                 "--height", str(h), "--out", str(out)]) == 0
    assert "ENDATA" in out.read_text()
    assert main(["dump-lp", "--problem", "gst", "--instance", gst_file,
                 "--out", str(out)]) == 0
